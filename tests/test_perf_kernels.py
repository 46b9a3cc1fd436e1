"""Property tests for the vectorized perf kernels and the parallel runner.

The net-geometry index (`repro.netlist.index`), the array-built
quadratic model (`repro.place.global_place._build_connectivity`) and
the array partner search of `repro.place.detailed.refine_placement`
must match their scalar references (`tests/placer_oracles.py`) *bit
for bit* on randomized netlists — floating-point accumulation order
and candidate order are part of the QoR baseline contract.  The
randomized designs deliberately include the degenerate shapes the
kernels special-case: 1-term nets, nets above ``ignore_degree``, nets
with no movable terminals, placed (fixed-pin) and unplaced
(offset-term) macros, port terminals, and, for the partner search,
tied distances, negative bucket keys, widths exactly at the tolerance
and empty neighbourhoods.

Also covered here: the scipy ``cg`` tol/rtol compat shim, the
``profile_call`` helper, the ``index_build`` span + ``hpwl_evals``
counter, and byte-identical QoR between ``bench run --jobs 1`` and
``--jobs 2``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench import (
    SCHEDULE_FILENAME,
    Scenario,
    artifact_filename,
    load_artifact,
    qor_json,
    register_scenario,
    run_benchmarks,
    scenarios_overlapped,
    unregister_scenario,
)
from repro.cells.library import default_library
from repro.cells.macro import Macro, MacroPin
from repro.cells.stdcell import PinDirection
from repro.floorplan.floorplan import Floorplan
from repro.geom import Point, Rect
from repro.netlist.core import Netlist, PortConstraint
from repro.obs import profile_call, recording
from repro.place.detailed import refine_placement
from repro.place.global_place import (
    _CG_TOL_KW,
    GlobalPlacerOptions,
    Placement,
    _build_connectivity,
    _cg,
)
from tests.placer_oracles import (
    build_connectivity_reference,
    net_points,
    refine_placement_reference,
    total_hpwl_reference,
)

#: Input pins of the library cells used by the random netlists (only
#: inputs: every net may have at most one driver, and these tests do
#: not need drivers at all).
INPUT_PINS = {
    "DFF_X1": ("D", "CK"),
    "DFF_X2": ("D", "CK"),
    "INV_X2": ("A",),
    "NAND2_X1": ("A", "B"),
}


def _make_macro(name: str) -> Macro:
    pins = [MacroPin("CLK", PinDirection.INPUT, Point(2.0, 0.0), "M4", 2.0, True)]
    for i in range(6):
        pins.append(
            MacroPin(
                f"DIN[{i}]", PinDirection.INPUT, Point(4.0 + i, 0.0), "M4", 1.0
            )
        )
    return Macro(
        name=name,
        width=30.0,
        height=12.0,
        pins=tuple(pins),
        obstructions=(),
        setup_time=100.0,
        access_delay=400.0,
        drive_resistance=1500.0,
        energy_per_access=300.0,
        leakage=1.0,
        is_memory=True,
    )


def build_random_design(seed: int, num_cells: int = 90):
    """A randomized design exercising every kernel code path.

    Net degrees span 1-term, clique-sized, star-sized, and one net above
    the default ``ignore_degree``; terminals mix movable cells, a placed
    macro, an *unplaced* (movable) macro, and ports.
    """
    rng = np.random.default_rng(seed)
    library = default_library()
    netlist = Netlist(f"rand{seed}")
    masters = sorted(INPUT_PINS)
    cells = [
        netlist.add_instance(
            f"mod{i % 3}/c{i}",
            library.cell(masters[int(rng.integers(len(masters)))]),
        )
        for i in range(num_cells)
    ]
    slots = [
        (inst, pin) for inst in cells for pin in INPUT_PINS[inst.master.name]
    ]
    slots = [slots[i] for i in rng.permutation(len(slots))]

    outline = Rect(0.0, 0.0, 200.0, 150.0)
    fp = Floorplan(f"fp{seed}", outline, utilization=0.8)
    placed_mac = netlist.add_instance("mac_fixed", _make_macro("MACF"))
    placed_mac.fixed = True
    fp.macro_placements["mac_fixed"] = Rect(10.0, 120.0, 40.0, 132.0)
    # Unplaced and not fixed: a movable macro whose pins become offset
    # terms relative to the instance center.
    floating_mac = netlist.add_instance("mac_float", _make_macro("MACM"))

    ports = [
        netlist.add_port(
            f"p{k}",
            PinDirection.INPUT,
            PortConstraint(edge="W", position=(k + 1) / 8.0),
        )
        for k in range(6)
    ]

    # Clock net: port driver + both macro CLK pins (exercises the
    # include_clock switch and the clock skip in the model builder).
    clk = netlist.add_net("clk")
    clk.is_clock = True
    netlist.connect_port(clk, ports[0])
    netlist.connect(clk, placed_mac, "CLK")
    netlist.connect(clk, floating_mac, "CLK")

    # Fixed-terminal-only net: no movers (placed macro pin + port).
    fixed_only = netlist.add_net("fixed_only")
    netlist.connect_port(fixed_only, ports[1])
    netlist.connect(fixed_only, placed_mac, "DIN[0]")

    si = 0

    def take(net, k):
        nonlocal si
        for _ in range(k):
            inst, pin = slots[si]
            si += 1
            netlist.connect(net, inst, pin)

    # 1-term, clique-sized, boundary, star-sized, and >ignore_degree nets.
    for d_i, deg in enumerate((1, 2, 3, 8, 9, 17, 70)):
        take(netlist.add_net(f"n{d_i}"), deg)
    # Mixed nets: movers + fixed macro pins / floating macro pins / ports.
    mixed_a = netlist.add_net("mixed_a")
    netlist.connect(mixed_a, placed_mac, "DIN[1]")
    netlist.connect(mixed_a, floating_mac, "DIN[0]")
    take(mixed_a, 3)
    mixed_b = netlist.add_net("mixed_b")
    netlist.connect_port(mixed_b, ports[2])
    netlist.connect(mixed_b, placed_mac, "DIN[2]")
    take(mixed_b, 10)

    port_locations = {
        p.name: Point(
            float(rng.uniform(outline.xlo, outline.xhi)),
            float(rng.uniform(outline.ylo, outline.yhi)),
        )
        for p in netlist.ports
    }
    placement = Placement(netlist, fp, port_locations)
    m = placement.movable
    placement.x[m] = rng.uniform(outline.xlo, outline.xhi, int(m.sum()))
    placement.y[m] = rng.uniform(outline.ylo, outline.yhi, int(m.sum()))
    return netlist, placement


SEEDS = (0, 1, 2)


class TestVectorizedHpwl:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_reference_exactly(self, seed):
        _netlist, placement = build_random_design(seed)
        assert placement.total_hpwl() == total_hpwl_reference(placement)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_include_clock_matches_exactly(self, seed):
        _netlist, placement = build_random_design(seed)
        with_clk = placement.total_hpwl(include_clock=True)
        assert with_clk == total_hpwl_reference(placement, include_clock=True)
        assert with_clk >= placement.total_hpwl()

    def test_net_points_match_term_positions(self):
        netlist, placement = build_random_design(3)
        geo = placement.geometry()
        net_ids = [net.id for net in netlist.nets]
        batched = geo.net_points(placement.x, placement.y, net_ids)
        for net, points in zip(netlist.nets, batched):
            scalar = net_points(placement, net)
            assert len(points) == len(scalar)
            for p, q in zip(points, scalar):
                assert p.x == q.x and p.y == q.y


class TestVectorizedConnectivity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "options",
        [
            GlobalPlacerOptions(),
            GlobalPlacerOptions(clique_max_degree=4, ignore_degree=16),
        ],
        ids=["default", "tight"],
    )
    def test_matches_scalar_reference_exactly(self, seed, options):
        netlist, placement = build_random_design(seed)
        movable_ids = [
            inst.id
            for inst in netlist.instances
            if placement.movable[inst.id]
        ]
        movable_index = {iid: k for k, iid in enumerate(movable_ids)}
        cv, sv = _build_connectivity(netlist, placement, movable_index, options)
        cr, sr = build_connectivity_reference(
            netlist, placement, movable_index, options
        )
        assert np.array_equal(np.asarray(cv.rows), np.asarray(cr.rows))
        assert np.array_equal(np.asarray(cv.cols), np.asarray(cr.cols))
        assert np.array_equal(np.asarray(cv.vals), np.asarray(cr.vals))
        assert np.array_equal(cv.diag, cr.diag)
        assert np.array_equal(cv.bx, cr.bx)
        assert np.array_equal(cv.by, cr.by)
        assert len(sv) == len(sr)
        for (mv, wv), (mr, wr) in zip(sv, sr):
            assert np.array_equal(mv, mr)
            assert wv == wr
        extra = np.random.default_rng(seed).uniform(
            0.1, 1.0, len(movable_ids)
        )
        diff = cv.matrix(extra) - cr.matrix(extra)
        assert diff.nnz == 0

    def test_offdiag_cached_across_matrix_calls(self):
        netlist, placement = build_random_design(0)
        movable_ids = [
            inst.id
            for inst in netlist.instances
            if placement.movable[inst.id]
        ]
        movable_index = {iid: k for k, iid in enumerate(movable_ids)}
        conn, _stars = _build_connectivity(
            netlist, placement, movable_index, GlobalPlacerOptions()
        )
        extra = np.ones(len(movable_ids))
        conn.matrix(extra)
        cached = conn._offdiag
        assert cached is not None
        conn.matrix(2.0 * extra)
        assert conn._offdiag is cached


#: Input pins of the refinement designs' cells: widths 0.8, 1.6 and
#: 3.2 um, so ``|w_c - w_i| == width_tolerance * w_i`` holds exactly for
#: neighbouring sizes at a tolerance of 1.0.
REFINE_PINS = {
    "AOI21_X1": ("A", "B", "C"),
    "AOI21_X2": ("A", "B", "C"),
    "INV_X8": ("A",),
}

#: Refinement layouts, each aimed at one corner of the partner search.
REFINE_LAYOUTS = ("uniform", "lattice", "outside", "sparse")


def build_refine_design(seed: int, layout: str):
    """A randomized all-movable placement for the swap-refinement pass.

    - ``uniform``: cells scattered over the outline;
    - ``lattice``: coordinates snapped to a coarse lattice, so many
      cells share a position and candidate distances tie exactly;
    - ``outside``: about a third of the cells and every port sit left
      of / below the outline, so cell and centroid bucket keys go
      negative;
    - ``sparse``: few cells, mostly empty buckets, and one cell whose
      only net ends at a far-away port, so its whole 3x3 neighbourhood
      is empty.
    """
    rng = np.random.default_rng(seed)
    library = default_library()
    netlist = Netlist(f"refine{seed}{layout}")
    masters = sorted(REFINE_PINS)
    num_cells = 60 if layout == "sparse" else 400
    cells = [
        netlist.add_instance(
            f"c{i}", library.cell(masters[int(rng.integers(len(masters)))])
        )
        for i in range(num_cells)
    ]
    slots = [
        (inst, pin) for inst in cells for pin in REFINE_PINS[inst.master.name]
    ]
    slots = [slots[i] for i in rng.permutation(len(slots))]
    ports = [
        netlist.add_port(
            f"p{k}", PinDirection.INPUT,
            PortConstraint(edge="W", position=(k + 1) / 10.0),
        )
        for k in range(8)
    ]
    used = 0
    if layout == "sparse":
        # The lone cell: one 2-term net to a port far outside the die.
        lone = netlist.add_net("lone")
        netlist.connect_port(lone, ports[0])
        netlist.connect(lone, *slots[0])
        used = 1
    k = 0
    while used + 6 <= len(slots):
        net = netlist.add_net(f"n{k}")
        if k < len(ports) - 1 and layout != "sparse":
            netlist.connect_port(net, ports[k + 1])
        for inst, pin in slots[used:used + int(rng.integers(2, 6))]:
            netlist.connect(net, inst, pin)
            used += 1
        k += 1

    outline = Rect(0.0, 0.0, 320.0, 240.0)
    fp = Floorplan(f"fp{seed}{layout}", outline, utilization=0.8)
    xs = rng.uniform(outline.xlo, outline.xhi, num_cells)
    ys = rng.uniform(outline.ylo, outline.yhi, num_cells)
    port_xy = rng.uniform(0.0, 240.0, (len(ports), 2))
    if layout == "lattice":
        pitch = outline.width / 40.0
        xs = np.round(xs / pitch) * pitch
        ys = np.round(ys / pitch) * pitch
    elif layout == "outside":
        shifted = rng.random(num_cells) < 1.0 / 3.0
        xs[shifted] -= outline.width / 2.0
        ys[shifted] -= outline.height / 2.0
        port_xy -= 300.0
    elif layout == "sparse":
        port_xy[0] = (-5000.0, -5000.0)
    port_locations = {
        p.name: Point(float(px), float(py))
        for p, (px, py) in zip(ports, port_xy)
    }
    placement = Placement(netlist, fp, port_locations)
    placement.x[:] = xs
    placement.y[:] = ys
    return placement


class TestPartnerSearch:
    """The array partner search against the scalar per-candidate scan:
    same swaps, same final coordinates, same HPWL double."""

    @staticmethod
    def _run_both(placement, **kwargs):
        arr = placement.copy()
        ref = placement.copy()
        got = refine_placement(arr, **kwargs)
        want = refine_placement_reference(ref, **kwargs)
        assert arr.x.tobytes() == ref.x.tobytes()
        assert arr.y.tobytes() == ref.y.tobytes()
        assert got.swaps == want.swaps
        assert got.hpwl_before == want.hpwl_before
        assert got.hpwl_after == want.hpwl_after
        return want

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("layout", REFINE_LAYOUTS)
    @pytest.mark.parametrize("width_tolerance", [0.0, 0.3, 1.0])
    def test_matches_scalar_reference_exactly(
        self, seed, layout, width_tolerance
    ):
        placement = build_refine_design(seed, layout)
        self._run_both(
            placement, width_tolerance=width_tolerance, stretch_fraction=0.3
        )

    @pytest.mark.parametrize("layout", REFINE_LAYOUTS)
    def test_layouts_swap(self, layout):
        """Every layout makes the pass accept swaps, so the equality
        checks above compare real work."""
        swaps = sum(
            self._run_both(build_refine_design(seed, layout)).swaps
            for seed in SEEDS
        )
        assert swaps > 0

    def test_layouts_hit_the_corner_cases(self):
        bucket = 320.0 / 32.0
        lattice = build_refine_design(0, "lattice")
        pts = np.stack([lattice.x, lattice.y], axis=1)
        assert np.unique(pts, axis=0).shape[0] < pts.shape[0]
        outside = build_refine_design(0, "outside")
        assert (np.floor(outside.x / bucket) < 0).any()
        assert all(p.x < 0.0 for p in outside.port_locations.values())
        sparse = build_refine_design(0, "sparse")
        keys = {
            (int(x / bucket), int(y / bucket))
            for x, y in zip(sparse.x, sparse.y)
        }
        assert len(keys) < 32 * 32 // 10
        widths = {inst.master.width for inst in sparse.netlist.instances}
        assert any(
            abs(a - b) == 1.0 * a for a in widths for b in widths if a != b
        )

    def test_no_movable_cells(self):
        """No movable cell: both return the empty result untouched."""
        netlist = Netlist("empty")
        fp = Floorplan("fp", Rect(0.0, 0.0, 10.0, 10.0), utilization=0.8)
        placement = Placement(netlist, fp, {})
        result = self._run_both(placement)
        assert (result.swaps, result.hpwl_before) == (0, 0.0)

    @pytest.mark.slow
    def test_matches_reference_on_medium_tile(self):
        """The medium tier (~12k cells) after global placement and
        legalization: realistic bucket occupancy."""
        from repro.floorplan.macro_placer import place_macros_2d
        from repro.floorplan.pins import place_ports
        from repro.netlist.openpiton import build_tile, large_cache_config
        from repro.place.global_place import global_place
        from repro.place.legalize import legalize
        from repro.place.regions import allocate_module_regions
        from repro.tech.presets import hk28

        tile = build_tile(large_cache_config(), scale=0.03)
        fp = place_macros_2d(tile)
        ports = place_ports(tile.netlist, fp.outline)
        anchors = allocate_module_regions(tile.netlist, fp)
        rough = global_place(tile.netlist, fp, ports, module_anchors=anchors)
        legal = legalize(rough, hk28().row_height).placement
        assert legal.netlist.num_instances > 10_000
        assert self._run_both(legal).swaps > 0


class TestCgShim:
    def test_resolved_keyword_is_known_spelling(self):
        assert _CG_TOL_KW in ("rtol", "tol")

    def test_cg_solves_spd_system(self):
        mat = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        rhs = np.array([1.0, 2.0])
        x, info = _cg(
            mat, rhs, x0=np.zeros(2), tol=1e-12, maxiter=200, callback=None
        )
        assert info == 0
        assert np.allclose(mat @ x, rhs, atol=1e-8)


class TestObservability:
    def test_index_build_span_and_hpwl_counter(self):
        _netlist, placement = build_random_design(0)
        with recording() as rec:
            placement.total_hpwl()
            placement.total_hpwl()
        assert "index_build" in rec.span_names()
        assert rec.metrics.counters["hpwl_evals"] == 2.0

    def test_index_shared_by_copies(self):
        _netlist, placement = build_random_design(1)
        geo = placement.geometry()
        clone = placement.copy()
        assert clone.geometry() is geo


class TestProfileCall:
    def test_returns_result_and_report(self):
        def work(a, b=0):
            return sum(range(a)) + b

        result, report = profile_call(work, 100, b=5)
        assert result == sum(range(100)) + 5
        assert "cumulative" in report
        assert "function calls" in report


#: Two tiny cross-flow scenarios for the parallel-runner QoR test.
TINY_SCENARIOS = [
    Scenario(
        name="macro3d-smallcache-tinytest",
        flow="macro3d",
        config="smallcache",
        size="tinytest",
        scale=0.01,
        sizing_iterations=1,
    ),
    Scenario(
        name="2d-smallcache-tinytest",
        flow="2d",
        config="smallcache",
        size="tinytest",
        scale=0.01,
        sizing_iterations=1,
    ),
]


class TestParallelBench:
    def test_jobs2_byte_identical_to_serial(self, tmp_path):
        for scenario in TINY_SCENARIOS:
            register_scenario(scenario)
        try:
            serial_dir = tmp_path / "serial"
            parallel_dir = tmp_path / "parallel"
            _res1, sched1, fails1 = run_benchmarks(
                TINY_SCENARIOS, str(serial_dir), svg=False, jobs=1
            )
            _res2, sched2, fails2 = run_benchmarks(
                TINY_SCENARIOS, str(parallel_dir), svg=False, jobs=2
            )
            assert not fails1 and not fails2
            for scenario in TINY_SCENARIOS:
                name = artifact_filename(scenario.name)
                a1 = load_artifact(str(serial_dir / name))
                a2 = load_artifact(str(parallel_dir / name))
                assert qor_json(a1) == qor_json(a2)
            assert (serial_dir / SCHEDULE_FILENAME).exists()
            assert (parallel_dir / SCHEDULE_FILENAME).exists()
            assert sched1["jobs"] == 1 and sched2["jobs"] == 2
            # Serial intervals are disjoint by construction; the pool
            # must actually overlap the two scenarios.
            assert not scenarios_overlapped(sched1)
            assert scenarios_overlapped(sched2)
        finally:
            for scenario in TINY_SCENARIOS:
                unregister_scenario(scenario.name)
