"""Body description tests: grammar, membership, gauges and polars.

Membership oracles are checked against hand values (l_p norms of small
vectors), structural identities (the polar of a p-ball is the dual-exponent
ball; bipolar membership equals primal membership), and the definition of
the polar itself (<x, y> <= 1 for all sampled primal/polar pairs).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarphi.bodies import (
    POLAR,
    PRIMAL,
    Interval,
    LinearImage,
    PBall,
    Product,
    Simplex,
    _revolution_gauge,
    gauge_batch,
    make_linear_image,
    membership,
    membership_batch,
    parse_body,
    polar_body,
    serialize_body,
)
from polarphi.errors import DomainError
from polarphi.revolution import polar_profile

DOCS = [
    '{"type": "interval"}',
    '{"type": "pball", "dim": 3, "p": 1.5}',
    '{"type": "pball", "dim": 2, "p": "inf"}',
    '{"type": "simplex", "dim": 3}',
    '{"type": "product", "p": 2.5, "left": {"type": "pball", "dim": 2, "p": 1}, '
    '"right": {"type": "interval"}}',
    '{"type": "revolution", "dim": 3, "profile": "pball:1.5"}',
    '{"type": "revolution", "dim": 2, "profile": {"grid": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]}}',
    '{"type": "revolution", "dim": 3, "profile": {"grid": '
    '[[-1.0, 0.0], [-0.5, 0.75], [0.0, 1.0], [0.5, 0.75], [1.0, 0.0]]}}',
    '{"type": "revolution", "dim": 4, "profile": "cylinder"}',
    '{"type": "linear", "matrix": [[1.0, 1.0], [0.0, 1.0]], '
    '"inner": {"type": "pball", "dim": 2, "p": 2}}',
]


def test_serialize_round_trip_bit_exact():
    for doc in DOCS:
        canonical = serialize_body(parse_body(doc))
        again = serialize_body(parse_body(canonical))
        assert canonical == again, doc
        # and canonical text is valid JSON with the same structure
        json.loads(canonical)


def test_parse_accepts_dict_and_p_forms():
    a = parse_body({"type": "pball", "dim": 2, "p": 2})
    b = parse_body('{"type": "pball", "dim": 2, "p": 2.0}')
    assert a == b
    inf1 = parse_body('{"type": "pball", "dim": 2, "p": "inf"}')
    assert math.isinf(inf1.p)
    assert serialize_body(inf1) == '{"type": "pball", "dim": 2, "p": "inf"}'


def test_parse_errors():
    with pytest.raises(DomainError, match="position"):
        parse_body("{not json")
    with pytest.raises(DomainError, match="unknown body type"):
        parse_body('{"type": "cube"}')
    with pytest.raises(DomainError, match="unknown keys"):
        parse_body('{"type": "interval", "radius": 2}')
    with pytest.raises(DomainError, match="dim"):
        parse_body('{"type": "pball", "dim": 0, "p": 2}')
    with pytest.raises(DomainError, match="dim"):
        parse_body('{"type": "pball", "dim": 2.5, "p": 2}')
    with pytest.raises(DomainError):
        parse_body('{"type": "pball", "dim": 2, "p": 0.5}')
    with pytest.raises(DomainError, match="1-dimensional"):
        parse_body('{"type": "interval", "dim": 3}')
    with pytest.raises(DomainError, match="dim >= 2"):
        parse_body('{"type": "revolution", "dim": 1, "profile": "ball"}')


def test_linear_matrix_errors():
    inner = {"type": "pball", "dim": 2, "p": 2}
    with pytest.raises(DomainError, match="square"):
        parse_body(json.dumps({"type": "linear", "matrix": [[1, 0, 0], [0, 1, 0]], "inner": inner}))
    with pytest.raises(DomainError, match="dimension"):
        parse_body(json.dumps({"type": "linear", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "inner": inner}))
    with pytest.raises(DomainError, match="singular"):
        parse_body(json.dumps({"type": "linear", "matrix": [[1, 0], [1, 0]], "inner": inner}))
    with pytest.raises(DomainError, match="singular"):
        make_linear_image(np.diag([1.0, 1e-15]), PBall(2, 2.0))
    for matrix in ([[1, 0], [0]], [[1, 0], [0, "one"]]):  # ragged, not numbers
        with pytest.raises(DomainError, match="square array"):
            parse_body(json.dumps({"type": "linear", "matrix": matrix, "inner": inner}))


def _chain(depth):
    """A x_p chain of `depth` bodies, depth - 1 products and the last interval,
    with alternating p so that no two nested nodes merge."""
    body = {"type": "interval"}
    for k in range(depth - 1):
        body = {"type": "product", "p": (1, "inf")[k % 2], "left": {"type": "interval"}, "right": body}
    return body


def test_nesting_limit():
    # 200 deep admits the longest x_p chain of the 200-dimension cap
    deep = parse_body(json.dumps(_chain(200)))
    assert deep.dim == 200
    assert parse_body(serialize_body(deep)) == deep
    assert polar_body(deep).dim == 200
    for too_deep in (_chain(201), json.dumps(_chain(201))):
        with pytest.raises(DomainError, match="deeper than 200"):
            parse_body(too_deep)


def test_membership_hand_values():
    b1 = PBall(2, 1.0)
    assert membership(b1, PRIMAL, [0.5, 0.4])  # l1 norm 0.9
    assert membership(b1, PRIMAL, [0.5, 0.5])  # boundary counts as inside
    assert not membership(b1, PRIMAL, [0.6, 0.5])
    # polar of the l1 ball is the cube
    assert membership(b1, POLAR, [0.99, -0.99])
    assert not membership(b1, POLAR, [1.01, 0.0])


def test_polar_structural_identities():
    assert polar_body(PBall(3, 1.5)) == PBall(3, 3.0)
    assert polar_body(PBall(2, 1.0)) == PBall(2, math.inf)
    assert polar_body(Interval()) == Interval()
    prod = polar_body(Product(2.5, PBall(2, 1.0), Interval()))
    assert prod.p == 2.5 / 1.5 and prod.left == PBall(2, math.inf)
    sim = polar_body(Simplex(2))
    assert isinstance(sim, LinearImage) and isinstance(sim.inner, Simplex)
    assert np.allclose(sim.matrix, -2.0 * np.eye(2))



def test_polar_of_a_polar_linear_image_is_the_body():
    # the polar of T K is T^{-T} K°, built from the stored T and T^{-1} with
    # no second SVD or condition check: rebuilt, the rotated cond-1e14 map
    # (accepted by the parser) raised DomainError at condition 1.002e14, and
    # the cond-1e12 map moved by 3.3e-6 relative
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    for matrix in (rot @ np.diag([1e7, 1e-7]) @ rot.T, np.diag([1e6, 1e-6])):
        body = make_linear_image(matrix, PBall(2, 1.5))
        twice = polar_body(polar_body(body))
        assert np.array_equal(twice.matrix, body.matrix), matrix
        assert np.array_equal(twice.inverse, body.inverse), matrix
        assert twice.inner == body.inner

def test_bipolar_membership_equality():
    rng = np.random.default_rng(5)
    for doc in DOCS:
        body = parse_body(doc)
        bipolar = polar_body(polar_body(body))
        pts = rng.uniform(-1.4, 1.4, size=(400, body.dim))
        g = gauge_batch(body, pts)
        clear = np.abs(g - 1.0) > 1e-6  # keep away from the boundary knife-edge
        a = membership_batch(body, PRIMAL, pts[clear])
        b = membership_batch(bipolar, PRIMAL, pts[clear])
        assert np.array_equal(a, b), doc


def test_pairing_bound_on_sampled_pairs():
    from polarphi.sampler import sample_body

    for doc in DOCS:
        body = parse_body(doc)
        xs = sample_body(body, PRIMAL, 800, 101)
        ys = sample_body(body, POLAR, 800, 202)
        dots = np.einsum("ij,ij->i", xs, ys)
        assert dots.max() <= 1.0 + 1e-12, doc


def test_gauge_values():
    cube = PBall(2, math.inf)
    assert gauge_batch(cube, np.array([[0.3, -0.9]]))[0] == 0.9
    big_p = PBall(2, 1e6)  # max-factored power stays finite
    g = gauge_batch(big_p, np.array([[0.5, 0.5]]))[0]
    assert abs(g - 0.5 * 2.0 ** (1e-6)) <= 1e-12
    assert gauge_batch(cube, np.zeros((1, 2)))[0] == 0.0


def test_a_preimage_past_the_double_range_is_outside():
    # (1e300, 0) maps to (1e310, 0) under the inverse: the row overflows to
    # inf, and its gauge must be inf, not inf/inf = NaN
    squeezed = make_linear_image(np.diag([1e-10, 1.0]), PBall(2, 2.0))
    far = np.array([[1e300, 0.0], [1e-10, 0.0]])
    assert gauge_batch(squeezed, far).tolist() == [math.inf, 1.0]
    assert not membership(squeezed, PRIMAL, far[0])
    for p in (1.0, 1.5, 3.0):
        body = make_linear_image(np.diag([1e-10, 1.0]), Product(p, Interval(), Interval()))
        assert gauge_batch(body, far[:1]).tolist() == [math.inf], p


def test_gauge_homogeneity():
    rng = np.random.default_rng(7)
    for doc in DOCS:
        body = parse_body(doc)
        x = rng.uniform(-0.7, 0.7, size=(1, body.dim))
        g1 = gauge_batch(body, x)[0]
        g3 = gauge_batch(body, 3.0 * x)[0]
        assert abs(g3 - 3.0 * g1) <= 1e-9 * max(1.0, g1), doc


def test_revolution_gauge_boundary_and_homogeneity():
    # (t, r(t) u) with |u| = 1 is a boundary point: gauge 1, on both sides
    rng = np.random.default_rng(11)
    ts = np.linspace(-1.0, 1.0, 41)
    flat_ends = {"grid": [[-1.0, 0.4], [-0.6, 0.8], [0.0, 1.0], [0.6, 0.8], [1.0, 0.4]]}
    pointed = {"grid": [[-1.0, 0.0], [-0.5, 0.75], [0.0, 1.0], [0.5, 0.75], [1.0, 0.0]]}
    for profile in ("ball", "cone", "cylinder", "pball:1.5", "pball:3", flat_ends, pointed):
        primal = parse_body({"type": "revolution", "dim": 4, "profile": profile})
        for body in (primal, polar_body(primal)):
            u = rng.normal(size=(ts.size, 3))
            u /= np.linalg.norm(u, axis=1)[:, None]
            pts = np.column_stack([ts, body.profile.values(ts)[:, None] * u])
            assert np.abs(gauge_batch(body, pts) - 1.0).max() <= 1e-14, profile
            x = rng.uniform(-1.5, 1.5, size=(50, 4))
            lam = rng.uniform(0.1, 10.0, size=50)
            g = gauge_batch(body, x)
            assert np.abs(gauge_batch(body, lam[:, None] * x) - lam * g).max() <= 1e-14 * (lam * g).max()


def test_grid_gauge_matches_max_over_all_knots_bit_for_bit():
    # the running max over the knots with s >= 0 must give the bits of the
    # broadcast max over every polar knot, on rows with zero coordinates
    rng = np.random.default_rng(5)
    grid = {"grid": [[-1.0, 0.0], [-0.5, 0.75], [0.0, 1.0], [0.5, 0.75], [1.0, 0.0]]}
    primal = parse_body({"type": "revolution", "dim": 3, "profile": grid})
    for body in (primal, polar_body(primal)):
        pts = rng.standard_normal((2000, 3))
        pts[:50] = 0.0
        pts[50:100, 0] = 0.0
        pts[100:150, 1:] = 0.0
        knots = polar_profile(body.profile).knots
        t = np.abs(pts[:, 0])[:, None]
        rho = np.linalg.norm(pts[:, 1:], axis=1)[:, None]
        ref = (t * np.abs(knots[:, 0]) + rho * knots[:, 1]).max(axis=1)
        assert np.array_equal(_revolution_gauge(body, pts), ref)


def test_simplex_construction():
    for n in (1, 2, 3, 5, 10):
        v = Simplex(n).vertices
        assert v.shape == (n + 1, n)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12
        gram = v @ v.T
        off = gram[~np.eye(n + 1, dtype=bool)]
        assert np.abs(off + 1.0 / n).max() <= 1e-12
        assert np.abs(v.sum(axis=0)).max() <= 1e-12
    assert not Simplex(2).symmetric
    assert PBall(2, 1.0).symmetric


def test_symmetry_is_a_fact_of_the_type():
    # a product or linear image is symmetric exactly when its parts are;
    # no constructor can set the flag or the interval's dimension
    assert not Product(2.0, Simplex(2), Interval()).symmetric
    assert not Product(2.0, Interval(), Product(1.0, PBall(2, 3.0), Simplex(2))).symmetric
    assert Product(2.0, PBall(2, 3.0), Interval()).symmetric
    assert not make_linear_image(np.eye(2), Simplex(2)).symmetric
    assert parse_body(DOCS[4]).symmetric and not parse_body(DOCS[3]).symmetric
    assert Interval().dim == 1
    for make in (lambda: Interval(dim=3), lambda: Simplex(2, symmetric=True),
                 lambda: PBall(2, 1.0, symmetric=False),
                 lambda: Product(2.0, Simplex(2), Interval(), symmetric=True)):
        with pytest.raises(TypeError):
            make()


def test_simplex_membership():
    sim = Simplex(2)
    v0 = sim.vertices[0]
    assert membership(sim, PRIMAL, v0)  # vertex is boundary: inside
    assert not membership(sim, PRIMAL, 1.0001 * v0)
    assert membership(sim, PRIMAL, np.zeros(2))
    # polar: <y, v_i> <= 1 for all vertices; -n v_0 is a polar vertex
    assert membership(sim, POLAR, v0)
    assert not membership(sim, POLAR, 1.0001 * v0)
    assert membership(sim, POLAR, -2.0 * v0)  # the polar vertex itself
    assert membership(sim, POLAR, -2.0 * (1.0 - 1e-9) * v0)
    assert not membership(sim, POLAR, -2.0 * (1.0 + 1e-9) * v0)


def test_membership_dimension_check():
    with pytest.raises(DomainError):
        membership(PBall(3, 2.0), PRIMAL, [0.1, 0.2])
    with pytest.raises(DomainError):
        membership_batch(PBall(2, 2.0), "dual", np.zeros((1, 2)))


def test_non_finite_points_are_invalid():
    # a NaN row has no l_p norm: _pnorm_rows would read its NaN maximum as 0
    # and call [nan, 0] inside every ball, while [inf, 0] divided inf by inf
    for body in (parse_body(doc) for doc in DOCS):
        for bad in (math.nan, math.inf, -math.inf):
            for j in range(body.dim):
                point = np.full(body.dim, 0.1 / body.dim)
                point[j] = bad
                for side in (PRIMAL, POLAR):
                    with pytest.raises(DomainError):
                        membership(body, side, point)
                    with pytest.raises(DomainError):
                        membership_batch(body, side, np.vstack([np.zeros(body.dim), point]))
                with pytest.raises(DomainError):
                    gauge_batch(body, point[None, :])
                with pytest.raises(DomainError):
                    gauge_batch(polar_body(body), point[None, :])


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=50.0),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
)
def test_pball_polar_is_dual_ball_property(p, coords):
    x = np.array([coords])
    q = math.inf if p == 1.0 else p / (p - 1.0)
    a = membership_batch(PBall(3, p), POLAR, x)[0]
    b = membership_batch(PBall(3, q), PRIMAL, x)[0]
    assert a == b
