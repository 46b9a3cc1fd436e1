"""Scalar reference implementations of the placer kernels (test-only).

The placer's array kernels must reproduce these walks bit for bit:
floating-point accumulation order and candidate order are part of the
QoR baseline contract.  Nothing in ``src/`` calls them.

- :func:`net_points`, :func:`net_hpwl`, :func:`total_hpwl_reference` —
  the per-term HPWL walk behind ``Placement.total_hpwl``.
- :func:`build_connectivity_reference` — the scalar quadratic-model
  builder behind ``global_place._build_connectivity``.
- :func:`refine_placement_reference` — ``refine_placement`` with the
  per-candidate partner scan over Python lists of instances.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.geom import Point
from repro.netlist.core import Instance, Net, Netlist
from repro.place.detailed import RefineResult, _cell_nets, _FastHpwl
from repro.place.global_place import (
    GlobalPlacerOptions,
    Placement,
    StarNet,
    _Connectivity,
)


# -- HPWL --------------------------------------------------------------------------


def net_points(placement: Placement, net: Net) -> List[Point]:
    return [placement.term_position(term) for term in net.terms]


def net_hpwl(placement: Placement, net: Net) -> float:
    points = net_points(placement, net)
    if len(points) < 2:
        return 0.0
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_hpwl_reference(
    placement: Placement, include_clock: bool = False
) -> float:
    """Scalar per-net walk; the bit-exact oracle for the index kernel."""
    total = 0.0
    for net in placement.netlist.nets:
        if net.is_clock and not include_clock:
            continue
        total += net_hpwl(placement, net)
    return total


# -- quadratic model ---------------------------------------------------------------


class ReferenceConnectivity(_Connectivity):
    """``_Connectivity`` filled one pair / one fixed pull at a time."""

    def __init__(self, num_movable: int):
        super().__init__(num_movable)
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.vals: List[float] = []

    def add_pair(self, i: int, j: int, w: float) -> None:
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(-w)
        self.rows.append(j)
        self.cols.append(i)
        self.vals.append(-w)
        self.diag[i] += w
        self.diag[j] += w

    def add_fixed(self, i: int, fx: float, fy: float, w: float) -> None:
        self.diag[i] += w
        self.bx[i] += w * fx
        self.by[i] += w * fy


def build_connectivity_reference(
    netlist: Netlist,
    placement: Placement,
    movable_index: Dict[int, int],
    options: GlobalPlacerOptions,
) -> Tuple[ReferenceConnectivity, List[StarNet]]:
    """Scalar quadratic-model builder."""
    conn = ReferenceConnectivity(len(movable_index))
    star_nets: List[StarNet] = []
    for net in netlist.nets:
        if net.is_clock or net.degree < 2 or net.degree > options.ignore_degree:
            continue
        movers: List[int] = []
        fixed: List[Point] = []
        for term in net.terms:
            obj, _pin = term
            if isinstance(obj, Instance) and placement.movable[obj.id]:
                movers.append(movable_index[obj.id])
            else:
                fixed.append(placement.term_position(term))
        if not movers:
            continue
        degree = net.degree
        if degree <= options.clique_max_degree:
            w = 2.0 / degree
            for a in range(len(movers)):
                for b in range(a + 1, len(movers)):
                    conn.add_pair(movers[a], movers[b], w)
                for point in fixed:
                    conn.add_fixed(movers[a], point.x, point.y, w)
        else:
            w = 4.0 / degree
            if fixed:
                fx = sum(p.x for p in fixed) / len(fixed)
                fy = sum(p.y for p in fixed) / len(fixed)
                for i in movers:
                    conn.add_fixed(i, fx, fy, w)
            star_nets.append((np.array(movers, dtype=np.int64), w))
    return conn, star_nets


# -- detailed placement ------------------------------------------------------------


def refine_placement_reference(
    placement: Placement,
    passes: int = 4,
    stretch_fraction: float = 0.15,
    width_tolerance: float = 0.3,
    max_degree: int = 32,
) -> RefineResult:
    """``refine_placement`` with the scalar partner search: buckets of
    instances, one candidate at a time, a stable ``list.sort`` on
    distance."""
    netlist = placement.netlist
    movable = [
        inst for inst in netlist.instances if placement.movable[inst.id]
    ]
    if not movable:
        return RefineResult(0, 0.0, 0.0)

    hpwl_before = placement.total_hpwl()
    swaps = 0
    fast = _FastHpwl(placement)
    cell_net_ids: Dict[int, List[int]] = {
        inst.id: [net.id for net in _cell_nets(inst, max_degree)]
        for inst in movable
    }

    for _sweep in range(passes):
        outline = placement.floorplan.outline
        bucket = max(outline.width, outline.height) / 32.0
        buckets: Dict[Tuple[int, int], List[Instance]] = {}
        for inst in movable:
            key = (
                int((placement.x[inst.id] - outline.xlo) / bucket),
                int((placement.y[inst.id] - outline.ylo) / bucket),
            )
            buckets.setdefault(key, []).append(inst)

        stretched: List[Tuple[float, Instance, float, float]] = []
        for inst in movable:
            net_ids = cell_net_ids[inst.id]
            if not net_ids:
                continue
            sx, sy, count = fast.centroid_sums(net_ids, inst.id)
            if count == 0:
                continue
            cx, cy = sx / count, sy / count
            stretch = abs(placement.x[inst.id] - cx) + abs(
                placement.y[inst.id] - cy
            )
            stretched.append((stretch, inst, cx, cy))
        stretched.sort(key=lambda item: -item[0])
        worst = stretched[: max(1, int(len(stretched) * stretch_fraction))]

        moved_this_pass = 0
        for stretch, inst, cx, cy in worst:
            if stretch < bucket:
                continue
            key = (
                int((cx - outline.xlo) / bucket),
                int((cy - outline.ylo) / bucket),
            )
            candidates: List[Tuple[float, Instance]] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for cand in buckets.get((key[0] + dx, key[1] + dy), []):
                        if cand is inst:
                            continue
                        rel = abs(cand.master.width - inst.master.width)
                        if rel > width_tolerance * inst.master.width:
                            continue
                        d = abs(placement.x[cand.id] - cx) + abs(
                            placement.y[cand.id] - cy
                        )
                        candidates.append((d, cand))
            candidates.sort(key=lambda item: item[0])
            for _d, partner in candidates[:8]:
                net_ids = list(dict.fromkeys(
                    cell_net_ids[inst.id] + cell_net_ids[partner.id]
                ))
                before = fast.nets_hpwl(net_ids)
                ix, iy = placement.x[inst.id], placement.y[inst.id]
                px, py = placement.x[partner.id], placement.y[partner.id]
                placement.x[inst.id], placement.y[inst.id] = px, py
                placement.x[partner.id], placement.y[partner.id] = ix, iy
                after = fast.nets_hpwl(net_ids)
                if after < before - 1e-9:
                    swaps += 1
                    moved_this_pass += 1
                    break
                placement.x[inst.id], placement.y[inst.id] = ix, iy
                placement.x[partner.id], placement.y[partner.id] = px, py
        if moved_this_pass == 0:
            break

    return RefineResult(swaps, hpwl_before, placement.total_hpwl())
