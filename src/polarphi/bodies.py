"""Symbolic convex bodies: parsing, membership, gauges and polars.

A body description is a small JSON document:

    {"type": "pball", "dim": 3, "p": 1.5}
    {"type": "product", "p": 2, "left": {...}, "right": {...}}
    {"type": "revolution", "dim": 4, "profile": "pball:3"}
    {"type": "linear", "matrix": [[1, 1], [0, 1]], "inner": {...}}
    {"type": "simplex", "dim": 2}
    {"type": "interval"}

with "p" a number in [1, inf] or the string "inf", and profiles in the
revolution-module grammar.  parse -> serialize reproduces the canonical form
bit-exactly.

Membership oracles are exact comparisons on computed gauges (boundary counts
as inside; no tolerance).  The polar of every variant resolves structurally:

    (B_p^n) deg = B_q^n            (dual exponent)
    (A x_p B) deg = A deg x_q B deg
    (T K) deg = T^{-T} K deg
    revolution deg = revolution with the polar profile (dual exponent or grid)
    simplex deg = the simplex scaled by -n (vertices -n v_i)

so polar membership is primal membership in the resolved body.  The regular
simplex is the single non-symmetric variant (.symmetric is a fact of each
type, and a product or linear image is symmetric when its parts are); its
n+1 unit vertices have pairwise inner product -1/n and sum to zero, which
makes the -n scaling of the polar exact.  The vertices come in closed form
from a Helmert matrix (an orthonormal basis of the sum-zero hyperplane of
R^{n+1}), with no factorization, so at n = 1 they are exactly +1 and -1 and
the polar -1 S is the interval itself.
"""

import functools
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .exact import _check_dim, _check_p, _p_to_json, dual_exponent
from .revolution import RevolutionProfile, parse_profile, polar_profile, profile_to_json

PRIMAL = "primal"
POLAR = "polar"

_COND_LIMIT = 1e14
# bodies on the longest root-to-leaf path of a description: a x_p chain of
# 200 intervals, the most the CLI's 200-dimension cap admits, is 200 deep
_MAX_DEPTH = 200
_TOO_DEEP = f"body description nests deeper than {_MAX_DEPTH} levels"


def _check_side(side: str) -> str:
    if side not in (PRIMAL, POLAR):
        raise DomainError(f"side must be 'primal' or 'polar', got {side!r}")
    return side


def _parse_p(value) -> float:
    """The grammar's "p": a number or exactly the string "inf", then _check_p."""
    if value != "inf" and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise DomainError(f"p must be a number or the string \"inf\", got {value!r}")
    return _check_p(value)


@dataclass(frozen=True)
class Interval:
    """The 1-dimensional body [-1, 1]; self-polar."""

    dim: ClassVar[int] = 1
    symmetric: ClassVar[bool] = True


@dataclass(frozen=True)
class PBall:
    dim: int
    p: float
    symmetric: ClassVar[bool] = True


@dataclass(frozen=True)
class Product:
    """x_p product: gauge is the l_p combination of the factor gauges."""

    p: float
    left: object
    right: object

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim

    @property
    def symmetric(self) -> bool:
        return self.left.symmetric and self.right.symmetric


@dataclass(frozen=True)
class Revolution:
    dim: int
    profile: RevolutionProfile
    symmetric: ClassVar[bool] = True


@dataclass(frozen=True)
class LinearImage:
    matrix: np.ndarray
    inner: object
    inverse: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def symmetric(self) -> bool:
        return self.inner.symmetric


@dataclass(frozen=True)
class Simplex:
    """Regular simplex: n+1 unit vertices, centroid at the origin."""

    dim: int
    symmetric: ClassVar[bool] = False

    @property
    def vertices(self) -> np.ndarray:
        return _simplex_vertices(self.dim)


@functools.cache
def _simplex_vertices(n: int) -> np.ndarray:
    """(n+1, n) read-only array of unit vertices with pairwise inner product -1/n.

    The Helmert closed form: vertex i has coordinate k = 1..n equal to s_k if
    i < k, -k s_k if i = k and 0 if i > k, with s_k = sqrt((n+1)/(n k (k+1))).
    Each column sums to zero, and at n = 1 the vertices are exactly +1 and -1.
    Every draw and Simplex.vertices share the one array, so it is read-only.
    """
    k = np.arange(1.0, n + 1.0)
    s = np.sqrt((n + 1.0) / (n * k * (k + 1.0)))
    i = np.arange(n + 1.0)[:, None]
    verts = np.where(i < k, s, np.where(i == k, -k * s, 0.0))
    verts.flags.writeable = False
    return verts


def _simplex_facet_scale(n: int) -> float:
    """One-sided inflation absorbing dot-product rounding at the vertices.

    The facet test max_j <x, -n v_j> <= 1 holds with equality at every vertex,
    and the computed dot of unit vectors can land up to n * 2^-53 above the
    true value.  Shrinking the facet normals by (1 + 4n * 2^-53) keeps every
    computed vertex gauge at <= 1, so vertices are deterministically inside
    under exact comparisons.  The represented body is the simplex inflated by
    < 1e-14 relative -- invisible at any tolerance in use.
    """
    return 1.0 / (1.0 + 4.0 * n * 2.0**-53)


def make_linear_image(matrix, inner) -> LinearImage:
    try:
        T = np.array(matrix, dtype=np.float64)
    except (TypeError, ValueError):
        raise DomainError("matrix must be a square array of numbers")
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise DomainError(f"matrix must be square, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise DomainError("matrix contains non-finite entries")
    if T.shape[0] != inner.dim:
        raise DomainError(
            f"matrix is {T.shape[0]}x{T.shape[1]} but the inner body has "
            f"dimension {inner.dim}"
        )
    svals = np.linalg.svd(T, compute_uv=False)
    smax, smin = float(svals[0]), float(svals[-1])
    if smin == 0.0 or smax / smin > _COND_LIMIT:
        cond = math.inf if smin == 0.0 else smax / smin
        raise DomainError(f"matrix is numerically singular (condition {cond:.3e})")
    return LinearImage(matrix=T, inner=inner, inverse=np.linalg.inv(T))


# ---------------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, required: set, optional: set = frozenset()):
    keys = set(obj.keys())
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise DomainError(f"body description missing keys {sorted(missing)}")
    if unknown:
        raise DomainError(f"body description has unknown keys {sorted(unknown)}")


def _parse_obj(obj, depth=1) -> object:
    if depth > _MAX_DEPTH:
        raise DomainError(_TOO_DEEP)
    if not isinstance(obj, dict):
        raise DomainError(f"body description must be an object, got {type(obj).__name__}")
    btype = obj.get("type")
    if btype == "pball":
        _require_keys(obj, {"type", "dim", "p"})
        return PBall(dim=_check_dim(obj["dim"]), p=_parse_p(obj["p"]))
    if btype == "product":
        _require_keys(obj, {"type", "p", "left", "right"})
        return Product(
            p=_parse_p(obj["p"]),
            left=_parse_obj(obj["left"], depth + 1),
            right=_parse_obj(obj["right"], depth + 1),
        )
    if btype == "revolution":
        _require_keys(obj, {"type", "dim", "profile"})
        dim = _check_dim(obj["dim"])
        if dim < 2:
            raise DomainError(f"revolution bodies need dim >= 2, got {dim}")
        return Revolution(dim=dim, profile=parse_profile(obj["profile"]))
    if btype == "linear":
        _require_keys(obj, {"type", "matrix", "inner"})
        return make_linear_image(obj["matrix"], _parse_obj(obj["inner"], depth + 1))
    if btype == "simplex":
        _require_keys(obj, {"type", "dim"})
        return Simplex(dim=_check_dim(obj["dim"]))
    if btype == "interval":
        _require_keys(obj, {"type"}, {"dim"})
        if "dim" in obj and obj["dim"] != 1:
            raise DomainError("interval is 1-dimensional")
        return Interval()
    raise DomainError(f"unknown body type {btype!r}")


def parse_body(text) -> object:
    """BodySpec from a JSON document (text or already-parsed object)."""
    if isinstance(text, (dict,)):
        return _parse_obj(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"body description is not valid JSON at position {exc.pos}: {exc.msg}")
    except RecursionError:
        raise DomainError(_TOO_DEEP)
    return _parse_obj(obj)


def _to_jsonable(spec) -> object:
    if isinstance(spec, PBall):
        return {"type": "pball", "dim": spec.dim, "p": _p_to_json(spec.p)}
    if isinstance(spec, Product):
        return {
            "type": "product",
            "p": _p_to_json(spec.p),
            "left": _to_jsonable(spec.left),
            "right": _to_jsonable(spec.right),
        }
    if isinstance(spec, Revolution):
        return {
            "type": "revolution",
            "dim": spec.dim,
            "profile": profile_to_json(spec.profile),
        }
    if isinstance(spec, LinearImage):
        return {
            "type": "linear",
            "matrix": [[float(v) for v in row] for row in spec.matrix],
            "inner": _to_jsonable(spec.inner),
        }
    if isinstance(spec, Simplex):
        return {"type": "simplex", "dim": spec.dim}
    if isinstance(spec, Interval):
        return {"type": "interval"}
    raise DomainError(f"not a body spec: {spec!r}")


def serialize_body(spec) -> str:
    """Canonical JSON for the body; parse(serialize(.)) round-trips bit-exactly."""
    return json.dumps(_to_jsonable(spec), separators=(", ", ": "))


# ---------------------------------------------------------------------------
# gauges and membership
# ---------------------------------------------------------------------------


def _pnorm_rows(pts: np.ndarray, p: float) -> np.ndarray:
    """Row-wise l_p norms, max-factored so any p in [1, inf] is overflow-safe."""
    a = np.abs(pts)
    m = a.max(axis=1)
    if math.isinf(p):
        return m
    ratios = a / np.where((m > 0.0) & (m < math.inf), m, 1.0)[:, None]  # 0 or inf rows keep m
    return m * np.power(ratios, p).sum(axis=1) ** (1.0 / p)


def _named_product(body):
    """A named revolution profile as the product [-1, 1] x_P B_2^{n-1}."""
    return Product(body.profile.exponent, Interval(), PBall(body.dim - 1, 2.0))


def _revolution_gauge(spec: Revolution, pts: np.ndarray) -> np.ndarray:
    """Named profiles: the gauge of their product; grids: the support
    function of the polar section, max_i (|t| |s_i| + |y| r_i) over its knots.

    The polar grid is even, mirrored exactly, so the knots with s_i >= 0
    give every value; a running max over them needs no (points, knots) array.
    """
    if spec.profile.kind != "grid":
        return _gauge(_named_product(spec), pts)
    t = np.abs(pts[:, 0])
    rho = _pnorm_rows(pts[:, 1:], 2.0)
    knots = polar_profile(spec.profile).knots
    (s0, r0), *rest = knots[knots[:, 0] >= 0.0]
    out = t * s0 + rho * r0
    for s, r in rest:
        # a tip knot (r = 0) leaves out rho * r: rho may be inf, and inf * 0 is NaN
        np.maximum(out, t * s + rho * r if r else t * s, out=out)
    return out


def _points(pts, dim) -> np.ndarray:
    """The points as an (m, dim) float array of finite coordinates."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DomainError(f"points must be (m, {dim}), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise DomainError("points must have finite coordinates")
    return pts


def gauge_batch(spec, pts: np.ndarray) -> np.ndarray:
    """Row-wise gauge (Minkowski functional) of the primal body."""
    pts = _points(pts, spec.dim)
    with np.errstate(over="ignore"):  # a gauge past the double range is inf
        return _gauge(spec, pts)


def _gauge(spec, pts):
    if isinstance(spec, Interval):
        return np.abs(pts[:, 0])
    if isinstance(spec, PBall):
        return _pnorm_rows(pts, spec.p)
    if isinstance(spec, Product):
        nl = spec.left.dim
        parts = (_gauge(spec.left, pts[:, :nl]), _gauge(spec.right, pts[:, nl:]))
        return _pnorm_rows(np.column_stack(parts), spec.p)
    if isinstance(spec, Revolution):
        return _revolution_gauge(spec, pts)
    if isinstance(spec, LinearImage):
        # rows divided by 2^(e-1), e the frexp exponent of their largest |x|,
        # keep the preimage's partial products in range, and a power of two
        # moves no bit of a finite gauge; 2^e is inf for rows near 1.8e308
        scale = np.ldexp(1.0, np.frexp(np.abs(pts).max(axis=1))[1] - 1)
        return _gauge(spec.inner, (pts / scale[:, None]) @ spec.inverse.T) * scale
    if isinstance(spec, Simplex):
        # facet form: K = {x : <x, -n v_j> <= 1 for every vertex}
        scale = -spec.dim * _simplex_facet_scale(spec.dim)
        return (pts @ spec.vertices.T * scale).max(axis=1)
    raise DomainError(f"not a body spec: {spec!r}")


def polar_body(spec) -> object:
    """Structural polar resolution (see module docstring for the rules)."""
    if isinstance(spec, Interval):
        return Interval()
    if isinstance(spec, PBall):
        return PBall(dim=spec.dim, p=dual_exponent(spec.p).q)
    if isinstance(spec, Product):
        return Product(
            p=dual_exponent(spec.p).q,
            left=polar_body(spec.left),
            right=polar_body(spec.right),
        )
    if isinstance(spec, Revolution):
        return Revolution(dim=spec.dim, profile=polar_profile(spec.profile))
    if isinstance(spec, LinearImage):
        # T^{-T} has T's condition number: no second SVD or check, and the
        # polar of the polar is the body itself, bit for bit
        return LinearImage(spec.inverse.T, polar_body(spec.inner), spec.matrix.T)
    if isinstance(spec, Simplex):
        return make_linear_image(
            -float(spec.dim) * np.eye(spec.dim), Simplex(dim=spec.dim)
        )
    raise DomainError(f"not a body spec: {spec!r}")


def resolve_side(spec, side: str) -> object:
    return spec if _check_side(side) == PRIMAL else polar_body(spec)


def membership_batch(spec, side: str, pts: np.ndarray) -> np.ndarray:
    """Boolean row-wise membership; boundary points count as inside."""
    body = resolve_side(spec, side)
    pts = _points(pts, body.dim)
    with np.errstate(over="ignore"):  # a gauge past the double range is outside
        if isinstance(body, Revolution):
            # direct section test: cheaper than the gauge, and exact
            t = pts[:, 0]
            rho = _pnorm_rows(pts[:, 1:], 2.0)
            inside_axis = np.abs(t) <= 1.0
            r = body.profile.values(np.clip(t, -1.0, 1.0))
            return inside_axis & (rho <= r)
        return _gauge(body, pts) <= 1.0


def membership(spec, side: str, point) -> bool:
    point = np.asarray(point, dtype=np.float64).reshape(1, -1)
    return bool(membership_batch(spec, side, point)[0])
