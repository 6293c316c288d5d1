"""Seeded workload generators.

Each workload is a list of ergonil experiment configs (plain JSON dicts)
plus the worker count the harness runs them with. The seed picks starting
points and angles; sizes are fixed per workload so every seed does the same
amount of work. The program under test only ever sees the generated
configs, written to disk and read back through `load_config`.

Every generated config carries assertions that hold at any seed:
structured seminorms equal 1, eigenfunction sweeps peak at 1, the van der
Corput inequality is a theorem, and the remaining averages are bounded by
the product of their factors' sup norms.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("configs", "orbit_weights", "seminorm_boxes", "sweep_peaked")

# harness worker threads per workload; capped at nproc by the runner
WORKERS = {"configs": 1, "orbit_weights": 2, "seminorm_boxes": 1, "sweep_peaked": 1}

CAT = [[2, 1], [1, 1]]
LATTICE_PRIME = 2147483647


def _angle(rng: random.Random) -> float:
    return rng.uniform(0.1, 0.9)


def _point(rng: random.Random, dim: int) -> list[float]:
    return [rng.random() for _ in range(dim)]


def _pow2_schedule(lo: int, hi: int) -> list[int]:
    return [1 << k for k in range(lo, hi + 1)]


def _bounded(product_bound: float, N: int) -> dict:
    """|A_N| <= product of sup norms, with rounding slack."""
    return {"check": "abs_below", "N": N, "value": product_bound * (1 + 1e-9)}


def _ones(sched: list[int]) -> list[dict]:
    """The seminorm equals 1 at every scheduled N."""
    return [{"check": "seminorm_between", "N": n, "low": 1 - 1e-9, "high": 1 + 1e-9}
            for n in sched]


def orbit_weights(seed: int, tiny: bool = False) -> list[dict]:
    """Orbit closed forms, the lattice walk and weight evaluation; no sweep."""
    rng = random.Random(seed)
    top = 12 if tiny else 18
    sched = _pow2_schedule(10, top)
    last = sched[-1]
    theta_g = [_angle(rng), _angle(rng), _angle(rng)]
    return [
        {
            "id": "ow_nil_theta",
            "experiment": "nil_wwdr_avg",
            "system": {"kind": "anzai_skew", "alpha": _angle(rng)},
            "observable1": {"terms": [[[0, 1], [1.0, 0.0]]]},
            "observable2": {"terms": [[[1, 1], [0.6, 0.0]], [[0, 1], [0.0, 0.4]]]},
            "x0": [_point(rng, 2), _point(rng, 2)],
            "a": 1,
            "b": 2,
            "weight": {
                "kind": "heisenberg_nilseq",
                "g": theta_g,
                "invariant": {"kind": "theta", "ell": 1, "truncation": 8, "width": 1.0},
            },
            "schedule": sched,
            # the theta section's sup is sum_j exp(-pi j^2) = 1.0864...
            "assertions": [_bounded(1.0865, last)],
        },
        {
            "id": "ow_cat_double",
            "experiment": "double_avg",
            "system": {"kind": "toral_automorphism", "matrix": CAT, "modulus": LATTICE_PRIME},
            "observable1": {"terms": [[[1, 0], [1.0, 0.0]]]},
            "observable2": {"terms": [[[0, 1], [1.0, 0.0]], [[1, 1], [0.5, 0.0]]]},
            "x0": [[rng.randrange(1, LATTICE_PRIME), rng.randrange(1, LATTICE_PRIME)]
                   for _ in range(2)],
            "a": 1,
            "b": 2,
            "schedule": sched,
            # mixing: |A_N| ~ N^{-1/2}, far below 0.05 at N >= 2^12
            "assertions": [{"check": "abs_below", "N": last, "value": 0.05}],
        },
        {
            "id": "ow_poly_cubic",
            "experiment": "poly_wwdr_avg",
            "system": {"kind": "rotation_torus", "alpha": [_angle(rng), _angle(rng)]},
            "observable1": {"terms": [[[1, 0], [1.0, 0.0]], [[0, 1], [0.5, 0.0]]]},
            "observable2": {"terms": [[[1, 1], [1.0, 0.0]]]},
            "x0": [_point(rng, 2), _point(rng, 2)],
            "a": 1,
            "b": 2,
            "p": [0.0, _angle(rng), _angle(rng), _angle(rng)],
            "schedule": sched,
            "assertions": [_bounded(1.5, last)],
        },
        {
            "id": "ow_dual",
            "experiment": "dual_system_avg",
            "system": {"kind": "rotation_torus", "alpha": [_angle(rng)]},
            "observable1": {"terms": [[[1], [1.0, 0.0]]]},
            "observable2": {"terms": [[[1], [0.7, 0.0]], [[2], [0.3, 0.0]]]},
            "x0": [_point(rng, 1), _point(rng, 1)],
            "a": 1,
            "b": 2,
            "system_s": {"kind": "rotation_torus", "alpha": [_angle(rng)]},
            "g_list": [
                {"terms": [[[1], [1.0, 0.0]]]},
                {"terms": [[[-1], [0.5, 0.0]], [[1], [0.5, 0.0]]]},
            ],
            "grid_size": 64,
            "schedule": _pow2_schedule(10, 12 if tiny else 14),
            "assertions": [_bounded(1.0, 1 << (12 if tiny else 14))],
        },
    ]


def seminorm_boxes(seed: int, tiny: bool = False) -> list[dict]:
    """Box and cube loops: many short reductions rather than a few long ones."""
    rng = random.Random(seed)
    k2_top, k3_top = (12, 10) if tiny else (16, 12)
    lin = {"kind": "polynomial_phase", "coefficients": [_angle(rng), _angle(rng)]}
    quad = {"kind": "polynomial_phase",
            "coefficients": [_angle(rng), _angle(rng), _angle(rng)]}
    ladder_k2 = _pow2_schedule(10, k2_top)
    ladder_k3 = _pow2_schedule(8, k3_top)
    ghk_sched = _pow2_schedule(8, 10 if tiny else 12)
    vdc_N, vdc_K = (1 << 13, 64) if tiny else (1 << 17, 256)
    cube_N, cube_H = (1 << 10, 8) if tiny else (1 << 14, 16)
    return [
        {
            # a linear phase has order-2 seminorm exactly 1
            "id": "sb_local_k2",
            "experiment": "local_seminorm",
            "weight": lin,
            "k": 2,
            "schedule": ladder_k2,
            "assertions": _ones(ladder_k2),
        },
        {
            # a quadratic phase has order-3 seminorm exactly 1
            "id": "sb_local_k3",
            "experiment": "local_seminorm",
            "weight": quad,
            "k": 3,
            "schedule": ladder_k3,
            "assertions": _ones(ladder_k3),
        },
        {
            # f(x, y) = e(x) on the skew is an eigenfunction: every level is 1
            "id": "sb_ghk_k3",
            "experiment": "ghk_seminorm",
            "system": {"kind": "anzai_skew", "alpha": _angle(rng)},
            "observable": {"terms": [[[1, 0], [1.0, 0.0]]]},
            "x0": _point(rng, 2),
            "k": 3,
            "schedule": ghk_sched,
            "assertions": _ones(ghk_sched),
        },
        {
            "id": "sb_cube",
            "experiment": "cube_average",
            "weight1": {
                "kind": "torus_nilseq",
                "alpha": [_angle(rng), _angle(rng)],
                "observable": {"terms": [[[1, 0], [0.6, 0.0]], [[0, 1], [0.4, 0.0]]]},
                "base": _point(rng, 2),
            },
            "weight2": {
                "kind": "heisenberg_nilseq",
                "g": [_angle(rng), _angle(rng), _angle(rng)],
                "invariant": {"kind": "torus_char", "m": 1, "k": 1},
            },
            "H": cube_H,
            "N": cube_N,
            "assertions": [_bounded(1.0, cube_N)],
        },
        {
            "id": "sb_vdc",
            "experiment": "vdc_bound",
            "weight": {
                "kind": "product",
                "left": quad,
                "right": {"kind": "scaled", "scale": [0.6, 0.8],
                          "inner": {"kind": "polynomial_phase",
                                    "coefficients": [0.0, _angle(rng)]}},
            },
            "N": vdc_N,
            "K": vdc_K,
            "assertions": [{"check": "passed"}],
        },
        {
            # fiber-only frequencies: the order-1 complement is the observable itself
            "id": "sb_vanishing",
            "experiment": "vanishing_experiment",
            "system": {"kind": "anzai_skew", "alpha": _angle(rng)},
            "observable1": {"terms": [[[0, 1], [1.0, 0.0]]]},
            "observable2": {"terms": [[[1, 1], [1.0, 0.0]]]},
            "x0": [_point(rng, 2)],
            "a": 1,
            "b": 2,
            "weight": {"kind": "polynomial_phase", "coefficients": [0.0, _angle(rng)]},
            "k": 2,
            "schedule": _pow2_schedule(8, 10 if tiny else 12),
            "assertions": [_bounded(1.0, 1 << (10 if tiny else 12))],
        },
    ]


def sweep_peaked(seed: int, tiny: bool = False) -> list[dict]:
    """Certified sweeps of eigenfunction sequences, whose sup is exactly 1."""
    rng = random.Random(seed)
    eps = 0.05 if tiny else 0.01
    sched = [1 << 11, 1 << 12] if tiny else [1 << 13, 1 << 15]
    peak = [{"check": "sup_at_least", "N": n, "value": 1 - eps} for n in sched]
    return [
        {
            "id": "sp_rotation",
            "experiment": "ww_sup",
            "system": {"kind": "rotation_torus", "alpha": [_angle(rng)]},
            "observable": {"terms": [[[1], [1.0, 0.0]]]},
            "x0": [_point(rng, 1)],
            "eps": eps,
            "schedule": sched,
            "assertions": peak,
        },
        {
            "id": "sp_skew_base",
            "experiment": "ww_sup",
            "system": {"kind": "anzai_skew", "alpha": _angle(rng)},
            "observable": {"terms": [[[1, 0], [1.0, 0.0]]]},
            "x0": [_point(rng, 2)],
            "eps": eps,
            "schedule": sched,
            "assertions": peak,
        },
    ]


_GENERATORS = {
    "orbit_weights": orbit_weights,
    "seminorm_boxes": seminorm_boxes,
    "sweep_peaked": sweep_peaked,
}


def write_configs(workload: str, seed: int, repo_root: Path, out_dir: Path,
                  tiny: bool = False) -> list[Path]:
    """Config files for one workload, in run order.

    `configs` names the shipped `configs/*.json` (seed-independent); the
    others are generated from `seed` and written under `out_dir`.
    """
    if workload == "configs":
        paths = sorted((repo_root / "configs").glob("*.json"))
        if not paths:
            raise FileNotFoundError(f"no shipped configs under {repo_root / 'configs'}")
        return paths
    docs = _GENERATORS[workload](seed, tiny)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        p = out_dir / f"{doc['id']}.json"
        p.write_text(json.dumps(doc, indent=1) + "\n")
        paths.append(p)
    return paths
