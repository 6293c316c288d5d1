"""Independent reference values for the benchmark's spot checks.

Nothing here calls ergonil. Configs are read as the raw JSON documents the
program receives. Orbits are iterated one step at a time in exact rational
arithmetic on the floats' binary values, every phase is reduced mod 1
exactly before it is exponentiated, means are plain left-to-right sums, and
box and cube averages follow their literal definitions.

The primitives the unit tests already pin (plain means, exact phases, the
cat-map step, the exact Heisenberg group law, the cube-average loop) come
from `tests/oracles.py`, loaded read-only under its own module name so it
cannot shadow, or be shadowed by, the test suite's `oracles`.
"""

from __future__ import annotations

import cmath
import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def _load_test_oracles():
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("ergonil_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ref = _load_test_oracles()
direct_mean = _ref.direct_mean
cube_average = _ref.cube_average_brute_vec

LATTICE_KINDS = ("toral_automorphism", "toral", "cat")
ROTATION_KINDS = ("rotation_torus", "rotation")
SKEW_KINDS = ("anzai_skew", "anzai")

# schedule-free experiments above this N are left to their own assertions:
# a literal iteration would cost more than the experiment itself
MAX_LITERAL_N = 1 << 16


class NoOracle(Exception):
    """The experiment has no literal reference at this size."""


def exact(v) -> Fraction:
    """Exact value of a JSON number or 'p/q' string as the program evaluates it.

    Declared fractions enter orbit formulas through their float value, so
    the reference uses that float's exact binary value too.
    """
    return Fraction(float(Fraction(v) if isinstance(v, str) else v))


def unit(theta: Fraction) -> complex:
    return cmath.exp(2j * math.pi * float(theta % 1))


def _coeff(c) -> complex:
    return complex(c) if isinstance(c, (int, float)) else complex(float(c[0]), float(c[1]))


def _terms(spec) -> list[tuple[tuple[int, ...], complex]]:
    return [
        (tuple(int(v) for v in f) if isinstance(f, list) else (int(f),), _coeff(c))
        for f, c in spec["terms"]
    ]


def observable(terms, point) -> complex:
    """sum c e(k . x) at an exact point."""
    return sum(c * unit(sum(k * x for k, x in zip(f, point))) for f, c in terms)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def orbit(system: dict, x0, steps: int) -> list[tuple[Fraction, ...]]:
    """[x0, T x0, ..., T^steps x0] by literal iteration."""
    kind = system["kind"]
    if kind in ROTATION_KINDS:
        alpha = system["alpha"] if isinstance(system["alpha"], list) else [system["alpha"]]
        a = [exact(v) for v in alpha]
        x = [exact(v) for v in x0]
        pts = [tuple(x)]
        for _ in range(steps):
            x = [(xi + ai) % 1 for xi, ai in zip(x, a)]
            pts.append(tuple(x))
        return pts
    if kind in SKEW_KINDS:
        a = exact(system["alpha"])
        x, y = exact(x0[0]), exact(x0[1])
        pts = [(x, y)]
        for _ in range(steps):
            x, y = (x + a) % 1, (y + x) % 1
            pts.append((x, y))
        return pts
    if kind in LATTICE_KINDS:
        q = int(system.get("modulus", (1 << 31) - 1))
        p = (int(x0[0]) % q, int(x0[1]) % q)
        pts = [(Fraction(p[0], q), Fraction(p[1], q))]
        for _ in range(steps):
            p = _ref.iterate_cat(system["matrix"], q, p, 1)
            pts.append((Fraction(p[0], q), Fraction(p[1], q)))
        return pts
    raise NoOracle(f"no literal orbit for system kind {kind!r}")


def observed_orbit(system: dict, obs: dict, x0, times) -> list[complex]:
    """f(T^t x0) for each nonnegative time t."""
    times = list(times)
    if min(times) < 0:
        raise NoOracle("negative times need the inverse map")
    pts = orbit(system, x0, max(times))
    terms = _terms(obs)
    return [observable(terms, pts[t]) for t in times]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _heisenberg(spec: dict, start: int, count: int) -> list[complex]:
    g = SimpleNamespace(**dict(zip("abc", (exact(v) for v in spec["g"]))))
    u, v, w = (exact(t) for t in spec.get("base", [0, 0, 0]))
    inv = spec["invariant"]
    powers = [(0, 0, 0)] + _ref.heisenberg_products_exact(g, start + count - 1)
    out = []
    for a, b, c in powers[start:]:
        X, Y, Z = a + u, b + v, c + w + a * v  # g^n * base
        q = -math.floor(Y)
        x, y, z = X % 1, Y % 1, (Z + X * q) % 1
        if inv["kind"] == "torus_char":
            out.append(unit(int(inv["m"]) * x + int(inv["k"]) * y))
        else:
            ell = int(inv["ell"])
            J = int(inv.get("truncation", 8))
            width = float(inv.get("width", 1.0))
            acc = sum(math.exp(-math.pi * ((float(y) + j) / width) ** 2) * unit(ell * j * x)
                      for j in range(-J, J + 1))
            out.append(acc * unit(ell * z))
    return out


def weight(spec: dict, start: int, count: int) -> list[complex]:
    """w(start), ..., w(start + count - 1) for a weight spec."""
    kind = spec["kind"]
    ns = range(start, start + count)
    if kind == "polynomial_phase":
        cs = [float(exact(c)) for c in spec["coefficients"]]
        return [unit(Fraction(_ref.exact_phase(cs, n))) for n in ns]
    if kind == "torus_nilseq":
        alpha = [exact(a) for a in spec["alpha"]]
        terms = _terms(spec["observable"])
        base = [exact(b) for b in spec.get("base", [0.0] * len(alpha))]
        return [observable(terms, [(b + n * a) % 1 for a, b in zip(alpha, base)]) for n in ns]
    if kind == "heisenberg_nilseq":
        return _heisenberg(spec, start, count)
    if kind == "product":
        return [x * y for x, y in zip(weight(spec["left"], start, count),
                                       weight(spec["right"], start, count))]
    if kind == "scaled":
        s = _coeff(spec["scale"])
        return [s * x for x in weight(spec["inner"], start, count)]
    raise NoOracle(f"no literal weight for kind {kind!r}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

_BASE0 = {"cesaro_nilseq", "local_seminorm", "ghk_seminorm", "vanishing_experiment",
          "vdc_bound", "cube_average"}


def index_base(doc: dict) -> int:
    return int(doc.get("index_base", 0 if doc["experiment"] in _BASE0 else 1))


def coupled_box_size(N: int) -> int:
    """Largest power of two H with H^2 <= N."""
    h = 1
    while 4 * h * h <= N:
        h *= 2
    return h


def pair_terms(doc: dict, x0, N: int, base: int) -> list[complex]:
    """f1(T^{an} x0) f2(T^{bn} x0) for n = base .. base + N - 1."""
    a, b = int(doc["a"]), int(doc["b"])
    ns = range(base, base + N)
    if min(a, b) < 0:
        raise NoOracle("negative exponents need the inverse map")
    pts = orbit(doc["system"], x0, max(a, b) * (base + N - 1))
    t1, t2 = _terms(doc["observable1"]), _terms(doc["observable2"])
    return [observable(t1, pts[a * n]) * observable(t2, pts[b * n]) for n in ns]


def average_terms(doc: dict, x0, N: int) -> list[complex]:
    """Term list whose mean is A_N for the schedule-driven averages."""
    e = doc["experiment"]
    base = index_base(doc)
    ns = range(base, base + N)
    if e == "cesaro_nilseq":
        return weight(doc["weight"], base, N)
    if e in ("birkhoff_avg", "ww_avg", "ww_sup"):
        terms = observed_orbit(doc["system"], doc["observable"], x0, ns)
        if e == "ww_avg":
            t = exact(doc["t"])
            terms = [u * unit(n * t) for u, n in zip(terms, ns)]
        return terms
    terms = pair_terms(doc, x0, N, base)
    if e == "double_avg" or e == "product_formula_check":
        return terms
    if e == "wwdr_avg":
        t = exact(doc["t"])
        return [u * unit(n * t) for u, n in zip(terms, ns)]
    if e == "poly_wwdr_avg":
        cs = [float(exact(c)) for c in doc["p"]]
        return [u * unit(Fraction(_ref.exact_phase(cs, n))) for u, n in zip(terms, ns)]
    if e == "nil_wwdr_avg":
        return [u * w for u, w in zip(terms, weight(doc["weight"], base, N))]
    raise NoOracle(f"no literal average for {e}")


def dual_system_norm(doc: dict, x0, N: int) -> float:
    """Root mean square over the quadrature nodes of the auxiliary average."""
    base = index_base(doc)
    ns = np.arange(base, base + N)
    t = exact(doc["system_s"]["alpha"][0] if isinstance(doc["system_s"]["alpha"], list)
              else doc["system_s"]["alpha"])
    base_terms = np.asarray(pair_terms(doc, x0, N, base))
    G = int(doc.get("grid_size", 64))
    nodes = np.arange(G) / G
    prod = np.broadcast_to(base_terms, (G, N)).copy()
    for i, g in enumerate(doc["g_list"], start=1):
        # exact phase of S^{in} applied to 0, then the node offset
        rot = np.array([float((i * int(n) * t) % 1) for n in ns])
        coords = (nodes[:, None] + rot[None, :]) % 1.0
        vals = np.zeros((G, N), dtype=complex)
        for (k,), c in _terms(g):
            vals += c * np.exp(2j * np.pi * ((k * coords) % 1.0))
        prod = prod * vals
    node_values = [direct_mean(row) for row in prod]
    return math.sqrt(sum(abs(v) ** 2 for v in node_values) / G)


def box_average(seq: np.ndarray, k: int, H: int, N: int) -> complex:
    """Mean over h in {1..H}^k of the conjugated order-k cube correlation.

    `box_average_brute` of tests/oracles.py with the loop over n vectorized:
    the literal per-n loop is too slow at the benchmark's box sizes.
    """
    total = 0j
    for h in itertools.product(range(1, H + 1), repeat=k):
        prod = np.ones(N, dtype=complex)
        for eps in itertools.product((0, 1), repeat=k):
            off = sum(e * v for e, v in zip(eps, h))
            window = seq[off:off + N]
            prod = prod * (np.conj(window) if sum(eps) % 2 else window)
        total += prod.mean()
    return total / H**k


def ghk_level(u: np.ndarray, k: int, H: int, N: int) -> float:
    """Literal recursive orbit seminorm estimate."""
    if k == 1:
        return abs(direct_mean(u[:N]))
    acc = 0.0
    for h in range(1, H + 1):
        acc += ghk_level(u[:u.size - h] * np.conj(u[h:]), k - 1, H, N) ** (1 << (k - 1))
    return (acc / H) ** (1.0 / (1 << k))


def zk_complement_terms(system: dict, obs: dict, k: int) -> dict:
    """obs minus its projection onto the order-k factor, by the model table.

    Rotations are their own factor, hyperbolic maps keep only the mean, and
    the skew keeps base frequencies at k = 1 and everything at k >= 2.
    """
    terms = obs["terms"]
    kind = system["kind"]
    if kind in ROTATION_KINDS or (kind in SKEW_KINDS and k >= 2):
        kept = []
    elif kind in LATTICE_KINDS:
        kept = [t for t in terms if any(int(v) for v in t[0])]
    else:
        kept = [t for t in terms if int(t[0][1]) != 0]
    return {"terms": kept}


def eigen_sup(doc: dict) -> float | None:
    """Exact sup for a one-term eigenfunction observable, else None.

    On a rotation every character is an eigenfunction, and on the skew so
    is every base character: f(T^n x) = c e(n theta) e(k.x), whose twisted
    average reaches |c| at t = -theta.
    """
    kind = doc["system"]["kind"]
    terms = _terms(doc["observable"])
    if len(terms) == 1 and (kind in ROTATION_KINDS
                            or (kind in SKEW_KINDS and terms[0][0][1] == 0)):
        return abs(terms[0][1])
    return None


def grid_sup(doc: dict, x0, N: int, eps: float) -> float | None:
    """max_t |(1/N) sum u_n e(nt)| on a grid within eps/2 of the sup.

    None when that grid would need more than 2^22 nodes.
    """
    base = index_base(doc)
    u = np.asarray(observed_orbit(doc["system"], doc["observable"], x0, range(base, base + N)))
    lipschitz = 2 * math.pi * (base + N - 1) * float(np.abs(u).max())
    m = 1 << max(12, math.ceil(math.log2(max(lipschitz / eps, base + N + 1))))
    if m > 1 << 22:
        return None
    # |sum u_n e(n j/m)| = |sum conj(u_n) e(-n j/m)|, a forward transform
    x = np.zeros(m, dtype=complex)
    x[base:base + N] = np.conj(u)
    return float(np.abs(np.fft.fft(x)).max()) / N
