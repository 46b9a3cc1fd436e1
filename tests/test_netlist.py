"""Netlist data model, generators, the OpenPiton tile, Verilog round-trip."""

import pickle

import pytest

from repro.cache import netlist_fingerprint
from repro.cells.stdcell import PinDirection
from repro.netlist.core import Netlist, PortConstraint
from repro.netlist.generator import DRIVE_AREA_FACTOR, LogicCloudBuilder
from repro.netlist.openpiton import (
    LOGIC_DIE,
    MACRO_DIE,
    BankPlan,
    build_tile,
    large_cache_config,
    small_cache_config,
)
from repro.netlist.verilog import read_verilog, write_verilog
from tests.conftest import build_mini_netlist


class TestCore:
    def test_duplicate_names_rejected(self, library):
        nl = Netlist("t")
        nl.add_instance("a", library.cell("INV_X1"))
        with pytest.raises(ValueError):
            nl.add_instance("a", library.cell("INV_X1"))
        nl.add_net("n")
        with pytest.raises(ValueError):
            nl.add_net("n")

    def test_multi_driver_rejected(self, library):
        nl = Netlist("t")
        a = nl.add_instance("a", library.cell("INV_X1"))
        b = nl.add_instance("b", library.cell("INV_X1"))
        net = nl.add_net("n")
        nl.connect(net, a, "Y")
        with pytest.raises(ValueError):
            nl.connect(net, b, "Y")

    def test_double_connection_rejected(self, library):
        nl = Netlist("t")
        a = nl.add_instance("a", library.cell("INV_X1"))
        net = nl.add_net("n")
        nl.connect(net, a, "A")
        with pytest.raises(ValueError):
            nl.connect(nl.add_net("m"), a, "A")

    def test_driver_tracking(self, mini_netlist):
        q1 = mini_netlist.net("q1")
        obj, pin = q1.driver
        assert obj.name == "ff1" and pin == "Q"
        assert len(q1.sinks) == q1.degree - 1

    def test_validate_passes_on_mini(self, mini_netlist):
        mini_netlist.validate()

    def test_validate_catches_undriven(self, library):
        nl = Netlist("t")
        a = nl.add_instance("a", library.cell("INV_X1"))
        nl.connect(nl.add_net("floating"), a, "A")
        out = nl.add_net("o")
        nl.connect(out, a, "Y")
        with pytest.raises(ValueError, match="no driver"):
            nl.validate()

    def test_pin_capacitance_sum(self, mini_netlist):
        q1 = mini_netlist.net("q1")
        inv_a = mini_netlist.instance("inv").pin_capacitance("A")
        nand_b = mini_netlist.instance("nand").pin_capacitance("B")
        assert q1.total_pin_capacitance() == pytest.approx(inv_a + nand_b)

    def test_areas(self, mini_with_macro):
        assert mini_with_macro.macro_area() > 0
        assert mini_with_macro.std_cell_area() > 0
        fraction = mini_with_macro.macro_area_fraction()
        assert 0 < fraction < 1

    def test_port_constraint_validation(self):
        with pytest.raises(ValueError):
            PortConstraint(edge="Q", position=0.5)
        with pytest.raises(ValueError):
            PortConstraint(edge="N", position=1.5)
        with pytest.raises(ValueError):
            PortConstraint(edge="N", position=0.5, io_delay_fraction=1.0)


class TestViews:
    """``instances``/``nets``/``ports`` are cached immutable tuples."""

    #: ``netlist_fingerprint`` of ``mini_with_macro`` when the views were
    #: fresh lists: the cached views must not change the content hash.
    MINI_WITH_MACRO_FINGERPRINT = (
        "4df241cf6f07ad3b2aab77f8c15777a9a00f06f62007b237427474a160e5df50"
    )

    def test_views_are_cached_tuples(self, mini_with_macro):
        nl = mini_with_macro
        for name in ("instances", "nets", "ports"):
            view = getattr(nl, name)
            assert isinstance(view, tuple)
            assert getattr(nl, name) is view

    def test_views_in_id_order(self, mini_with_macro):
        nl = mini_with_macro
        assert [i.id for i in nl.instances] == list(range(nl.num_instances))
        assert [n.id for n in nl.nets] == list(range(nl.num_nets))

    def test_add_rebuilds_view(self, library):
        nl = Netlist("t")
        inst_view, net_view, port_view = nl.instances, nl.nets, nl.ports
        assert inst_view == net_view == port_view == ()
        inst = nl.add_instance("a", library.cell("INV_X1"))
        assert nl.instances is not inst_view and nl.instances == (inst,)
        net = nl.add_net("n")
        assert nl.nets is not net_view and nl.nets == (net,)
        port = nl.add_port("p", PinDirection.INPUT)
        assert nl.ports is not port_view and nl.ports == (port,)
        # The untouched views survive an unrelated add.
        inst_view = nl.instances
        nl.add_net("m")
        assert nl.instances is inst_view
        assert [n.name for n in nl.nets] == ["n", "m"]

    def test_pickle_round_trip_rebuilds_views(self, library, test_macro):
        nl = build_mini_netlist(library, macro=test_macro)
        _ = (nl.instances, nl.nets, nl.ports)  # build every view
        clone = pickle.loads(pickle.dumps(nl))
        assert [i.name for i in clone.instances] == [
            i.name for i in nl.instances
        ]
        assert [n.name for n in clone.nets] == [n.name for n in nl.nets]
        assert [p.name for p in clone.ports] == [p.name for p in nl.ports]
        assert clone.instances is clone.instances
        assert clone.instances[0] is clone.instance(nl.instances[0].name)
        assert netlist_fingerprint(clone) == netlist_fingerprint(nl)

    def test_pickle_size_independent_of_views(self, library, test_macro):
        cold = build_mini_netlist(library, macro=test_macro)
        warm = build_mini_netlist(library, macro=test_macro)
        _ = (warm.instances, warm.nets, warm.ports)  # build every view
        assert len(pickle.dumps(warm)) == len(pickle.dumps(cold))

    def test_fingerprint_unchanged(self, library, test_macro):
        nl = build_mini_netlist(library, macro=test_macro)
        assert netlist_fingerprint(nl) == self.MINI_WITH_MACRO_FINGERPRINT
        _ = (nl.instances, nl.nets, nl.ports)  # build every view
        assert netlist_fingerprint(nl) == self.MINI_WITH_MACRO_FINGERPRINT


class TestGenerator:
    def test_cloud_structure(self, library):
        nl = Netlist("g")
        clock = nl.add_net("clk")
        clock.is_clock = True
        port = nl.add_port("clk", PinDirection.INPUT)
        nl.connect_port(clock, port)
        builder = LogicCloudBuilder(nl, library, seed=1)
        stats = builder.add_cloud("m", num_gates=120, num_flops=16, depth=6,
                                  clock_net=clock, num_inputs=4)
        assert len(stats.flops) == 16
        assert len(stats.gates) >= 120
        assert len(stats.open_inputs) == 4
        for net in stats.open_inputs:
            builder.drive_net_from(net, stats.exported_nets)
        nl.validate()

    def test_cloud_deterministic(self, library):
        def build():
            nl = Netlist("g")
            clock = nl.add_net("clk")
            clock.is_clock = True
            port = nl.add_port("clk", PinDirection.INPUT)
            nl.connect_port(clock, port)
            LogicCloudBuilder(nl, library, seed=7).add_cloud(
                "m", 100, 10, 5, clock)
            return [inst.master.name for inst in nl.instances]
        assert build() == build()

    def test_drive_area_factor_matches_mix(self):
        assert 1.5 < DRIVE_AREA_FACTOR < 4.0

    def test_invalid_cloud_params(self, library):
        nl = Netlist("g")
        clock = nl.add_net("clk")
        builder = LogicCloudBuilder(nl, library)
        with pytest.raises(ValueError):
            builder.add_cloud("m", 10, 0, 5, clock)
        with pytest.raises(ValueError):
            builder.add_cloud("m", 10, 5, 0, clock)


class TestOpenPiton:
    def test_tile_is_valid(self, tiny_tile):
        tiny_tile.netlist.validate()

    def test_macros_exceed_half_area(self, tiny_tile):
        # The paper's motivating observation.
        assert tiny_tile.netlist.macro_area_fraction() > 0.5

    def test_die_preferences(self, tiny_tile):
        macro_die = tiny_tile.macros_for_die(MACRO_DIE)
        logic_die = tiny_tile.macros_for_die(LOGIC_DIE)
        assert macro_die and logic_die
        names = {m.name for m in logic_die}
        assert any(n.startswith("l1") for n in names)

    def test_large_has_fewer_macro_die_pins_than_small(self):
        small = build_tile(small_cache_config(), scale=0.02)
        large = build_tile(large_cache_config(), scale=0.02)
        # Matches the paper's bump-count ordering (Tables I/II).
        assert large.macro_pin_count(MACRO_DIE) < small.macro_pin_count(MACRO_DIE)

    def test_noc_ports_constrained(self, tiny_tile):
        out_port = tiny_tile.netlist.port("noc1_N_out[0]")
        constraint = out_port.constraint
        assert constraint.io_delay_fraction == 0.5
        assert constraint.aligned_with == "noc1_S_in[0]"

    def test_clock_reaches_every_sequential(self, tiny_tile):
        clock = tiny_tile.clock_net
        clocked = {id(obj) for obj, _ in clock.terms}
        for inst in tiny_tile.netlist.instances:
            if inst.is_sequential:
                assert id(inst) in clocked

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            build_tile(small_cache_config(), scale=0.0)
        with pytest.raises(ValueError):
            build_tile(small_cache_config(), scale=1.5)

    def test_area_preserved_under_scaling(self):
        a = build_tile(small_cache_config(), scale=0.02)
        b = build_tile(small_cache_config(), scale=0.04)
        ratio = a.netlist.std_cell_area() / b.netlist.std_cell_area()
        assert 0.7 < ratio < 1.4  # same calibrated area, fewer instances

    def test_bank_plan_validation(self):
        with pytest.raises(ValueError):
            BankPlan(3, banks=5, word_bits=32)  # uneven split
        with pytest.raises(ValueError):
            BankPlan(8, banks=2, word_bits=32, die="nowhere")


class TestVerilog:
    def test_roundtrip_mini(self, mini_with_macro, library, test_macro):
        text = write_verilog(mini_with_macro)
        back = read_verilog(text, library, {test_macro.name: test_macro})
        assert back.num_instances == mini_with_macro.num_instances
        assert back.num_nets == mini_with_macro.num_nets
        back.validate()
        # Constraints preserved.
        port = back.port("din")
        assert port.constraint.io_delay_fraction == 0.5
        assert back.net("clk").is_clock

    def test_roundtrip_tile(self, tiny_tile):
        text = write_verilog(tiny_tile.netlist)
        macros = {
            inst.master.name: inst.master
            for inst in tiny_tile.netlist.macros()
        }
        back = read_verilog(text, tiny_tile.library, macros)
        assert back.num_instances == tiny_tile.netlist.num_instances
        assert back.num_nets == tiny_tile.netlist.num_nets
        for port in tiny_tile.netlist.ports:
            assert back.port(port.name).net.name == port.net.name

    def test_unknown_master_raises(self, mini_netlist, library):
        text = write_verilog(mini_netlist).replace("INV_X2", "NOPE_X9")
        with pytest.raises(KeyError):
            read_verilog(text, library)
