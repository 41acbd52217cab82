import math

import numpy as np
import pytest

from rldp.errors import InputError
from rldp.geometry import (BOUNDARY, BOUNDARY_TOL, EXTERIOR, INTERIOR,
                           ConvexDomain, _row_norm, _row_sumsq, skorokhod_1d)
from rldp.integrator import _step


class TestContains:
    def test_ball_center_interior(self):
        dom = ConvexDomain.ball([0.0, 0.0], 1.0)
        assert dom.contains([0.0, 0.0]) == INTERIOR

    def test_ball_surface_boundary(self):
        dom = ConvexDomain.ball([0.0, 0.0], 1.0)
        assert dom.contains([1.0, 0.0]) == BOUNDARY

    def test_box_exterior(self):
        dom = ConvexDomain.box([0.0], [1.0])
        assert dom.contains([1.5]) == EXTERIOR

    def test_nonfinite_rejected(self):
        dom = ConvexDomain.box([0.0], [1.0])
        with pytest.raises(InputError):
            dom.contains([np.nan])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_box_inequalities_and_numpy_norm(self, d):
        """``contains`` reads ``contains_all`` and ``_row_norm``; its verdict
        is that of the box inequalities and ``np.linalg.norm`` it replaced."""
        def reference(dom, x):
            eps = BOUNDARY_TOL
            if dom.kind == "box":
                if np.any(x < dom.lo - eps) or np.any(x > dom.hi + eps):
                    return EXTERIOR
                on_face = np.any(x <= dom.lo + eps) or np.any(x >= dom.hi - eps)
                return BOUNDARY if on_face else INTERIOR
            r = float(np.linalg.norm(x - dom.center))
            if r > dom.radius + eps:
                return EXTERIOR
            return BOUNDARY if r >= dom.radius - eps else INTERIOR

        rng = np.random.default_rng(500 + d)
        for dom in _domains(d):
            xs = _edge_points(dom, rng)
            verdicts = [dom.contains(x) for x in xs]
            assert verdicts == [reference(dom, x) for x in xs]
            assert set(verdicts) == {INTERIOR, BOUNDARY, EXTERIOR}


class TestProject:
    def test_ball_radial(self):
        dom = ConvexDomain.ball([0.0, 0.0], 1.0)
        x = np.array([2.0, 0.0])
        p = dom.project(x)
        assert np.allclose(p, [1.0, 0.0])
        assert np.linalg.norm(x - p) == pytest.approx(1.0)

    def test_box_clamp_per_axis(self):
        dom = ConvexDomain.box([0.0, 0.0], [1.0, 1.0])
        x = np.array([-0.5, 0.5])
        p = dom.project(x)
        assert np.allclose(p, [0.0, 0.5])
        assert np.linalg.norm(x - p) == pytest.approx(0.5)

    def test_identity_on_interior(self):
        dom = ConvexDomain.box([0.0], [1.0])
        p = dom.project(np.array([0.5]))
        assert p.shape == (1,) and p[0] == 0.5

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for dom in (ConvexDomain.box([-1.0, 0.0], [1.0, 2.0]),
                    ConvexDomain.ball([0.5, 0.5], 1.5)):
            x = rng.normal(0, 3, size=(200, 2))
            p = dom.project(x)
            p2 = dom.project(p)
            assert np.allclose(p, p2)
            assert np.all(np.linalg.norm(p - p2, axis=-1) <= 1e-12)

    def test_contraction(self):
        # |proj(x) - proj(y)| <= |x - y| for convex sets
        rng = np.random.default_rng(1)
        for dom in (ConvexDomain.box([0.0, 0.0], [1.0, 1.0]),
                    ConvexDomain.ball([0.0, 0.0], 1.0)):
            x = rng.normal(0, 2, size=(1000, 2))
            y = rng.normal(0, 2, size=(1000, 2))
            px = dom.project(x)
            py = dom.project(y)
            assert np.all(np.linalg.norm(px - py, axis=1)
                          <= np.linalg.norm(x - y, axis=1) + 1e-12)


class TestProjectFarPoints:
    """A point past ~1.3e154 from the centre, whose sum of squares
    overflows, still projects along its direction: the ball projection
    used to raise an overflow warning, or return the centre."""

    BALL = ConvexDomain.ball([0.0, 0.0], 1.0)

    def test_single_far_points(self):
        assert _same_bytes(self.BALL.project([1e200, 0.0]),
                           np.array([1.0, 0.0]))
        h = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(self.BALL.project([-1e300, 1e300]),
                                   [-h, h], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_batch_keeps_the_ordinary_rows(self, d):
        rng = np.random.default_rng(800 + d)
        dom = ConvexDomain.ball(rng.uniform(-1.0, 1.0, d), 1.5)
        ordinary = rng.normal(0.0, 2.0, (6, d))
        far = rng.normal(0.0, 1.0, (3, d)) * np.array([[1e200], [1e300],
                                                       [1e160]])
        x = np.concatenate([ordinary[:3], far, ordinary[3:]])
        keep = np.r_[0:3, 6:9]
        want = dom.project(ordinary)
        unit = far / np.max(np.abs(far), axis=-1, keepdims=True)
        unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
        for got in (dom.project(x), dom.project(x, out=np.empty_like(x))):
            assert _same_bytes(got[keep], want)
            np.testing.assert_allclose(got[3:6], dom.center + 1.5 * unit,
                                       rtol=1e-14, atol=1e-14)
        for row, p in zip(ordinary, want):
            assert _same_bytes(dom.project(row), p)



class TestOutwardNormal:
    def test_sphere_radial(self):
        dom = ConvexDomain.ball([0.0, 0.0], 1.0)
        assert np.allclose(dom.normals_at([0.0, 1.0]), [0.0, 1.0])

    def test_interval_endpoint(self):
        dom = ConvexDomain.box([0.0], [1.0])
        assert np.allclose(dom.normals_at([0.0]), [-1.0])

    def test_symmetric_corner(self):
        dom = ConvexDomain.box([0.0, 0.0], [1.0, 1.0])
        n = dom.normals_at([1.0, 1.0])
        assert np.allclose(n, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_supporting_hyperplane_inequality(self):
        # <y - x, n(x)> <= 0 for interior y and boundary x
        rng = np.random.default_rng(2)
        for dom in (ConvexDomain.box([0.0, -1.0], [2.0, 1.0]),
                    ConvexDomain.ball([0.3, 0.3], 1.2)):
            xb = dom.sample_boundary(rng, 1000)
            yi = dom.sample_interior(rng, 1000)
            n = dom.normals_at(xb)
            assert np.all(np.einsum("ij,ij->i", yi - xb, n) <= 1e-9)


def _brute_force_two_barrier(w, lo, hi):
    """Independent oracle: stepwise clamping of increments with barrier
    bookkeeping; no running-max formulas."""
    x = np.empty_like(w)
    lower = np.zeros_like(w)
    upper = np.zeros_like(w)
    x[0] = min(max(w[0], lo), hi)
    for k in range(1, len(w)):
        y = x[k - 1] + (w[k] - w[k - 1])
        lower[k] = lower[k - 1] + max(0.0, lo - y)
        upper[k] = upper[k - 1] + max(0.0, y - hi)
        x[k] = min(max(y, lo), hi)
    return x, lower + upper


class TestSkorokhod1D:
    def test_push_into_barrier(self):
        t = np.linspace(0, 1, 101)
        x, ell = skorokhod_1d(-t, 0.0, 1.0)
        assert np.allclose(x, 0.0)
        assert np.allclose(ell, t)

    def test_never_touches(self):
        t = np.linspace(0, 1, 101)
        x, ell = skorokhod_1d(t, 0.0, 2.0)
        assert np.allclose(x, t)
        assert np.allclose(ell, 0.0)

    def test_zigzag_vs_fine_grid_oracle(self):
        # piecewise-linear 0 -> 1.5 -> -0.5 on [0, 2], barriers [0, 1]
        def zigzag(t):
            return np.where(t <= 1.0, 1.5 * t, 1.5 - 2.0 * (t - 1.0))

        coarse_t = np.linspace(0, 2, 41)
        fine_t = np.linspace(0, 2, 401)  # 10x finer
        x_c, ell_c = skorokhod_1d(zigzag(coarse_t), 0.0, 1.0)
        x_f, ell_f = _brute_force_two_barrier(zigzag(fine_t), 0.0, 1.0)
        cell = coarse_t[1] - coarse_t[0]
        max_rate = 2.0  # steepest slope of the zigzag
        tol = max_rate * cell
        assert np.max(np.abs(x_c - x_f[::10])) <= tol
        assert np.max(np.abs(ell_c - ell_f[::10])) <= 2 * tol

    def test_constraints_hold(self):
        rng = np.random.default_rng(3)
        w = np.cumsum(np.r_[0.5, rng.normal(0, 0.2, 200)])
        x, ell = skorokhod_1d(w, 0.0, 1.0)
        assert np.all(x >= -1e-12) and np.all(x <= 1 + 1e-12)
        assert np.all(np.diff(ell) >= -1e-12)  # nondecreasing local time

    def test_one_sided_closed_form(self):
        # an upper barrier the path never reaches leaves the one-sided map:
        # the classic reflection formula x = w + max(0, running max of -w)
        rng = np.random.default_rng(4)
        w = np.cumsum(np.r_[0.2, rng.normal(0, 0.3, 300)])
        push = np.maximum.accumulate(np.maximum(0.0, -w))
        x, ell = skorokhod_1d(w, 0.0, float(np.max(w + push)) + 1.0)
        assert np.allclose(x, w + push)
        assert np.allclose(ell, push)

    def test_invalid_barriers(self):
        with pytest.raises(InputError):
            skorokhod_1d([0.5, 0.6], 1.0, 0.0)

    @pytest.mark.parametrize("m", [120, 300])
    def test_many_wall_changes_converge(self, m):
        """2m crossings of [0, 1] take m + 1 sweeps, past a fixed cap of
        100: the first crossing pushes by 5 and each later one by 10, so
        the local time is 5 + 10 (2m - 1) = 20m - 5 exactly."""
        w = np.concatenate([[0.5], np.tile([-5.0, 6.0], m)])
        x, ell = skorokhod_1d(w, 0.0, 1.0)
        x_ref, _ = _brute_force_two_barrier(w, 0.0, 1.0)
        assert ell[-1] == 20 * m - 5
        assert np.array_equal(x, x_ref)


class TestConstruction:
    """A domain needs a dimension, and bounds (box lo and hi, ball centre and
    radius) finite and at most 1e50 in magnitude, the rule of every model
    parameter and control value: without a dimension sampling divides by
    zero, and within the cap every squared distance between two points of
    the domain is finite."""

    @pytest.mark.parametrize("lo, hi", [
        ([], []), ([-1e308], [1e308]), ([0.0, -1e308], [1.0, 1e308]),
        ([-8e307], [8e307]), ([0.0], [6.8e153]), ([0.0, 0.0], [6e153, 6e153]),
        ([0.0], [2e50]), ([-2e50, 0.0], [0.0, 1.0])])
    def test_box_needs_dimensions_and_finite_widths(self, lo, hi):
        with pytest.raises(InputError):
            ConvexDomain.box(lo, hi)

    @pytest.mark.parametrize("center, radius", [
        ([], 1.0), ([[0.0, 0.0]], 1.0), ([1e308], 1e308),
        ([0.0, -1e308], 1e308), ([0.0, 0.0], 1e200), ([6.7e153], 1e152),
        ([0.0], 2e50), ([0.0, 2e50], 1.0),
        # a radius that is not one number raised numpy's TypeError
        ([0.0], [1.0]), ([0.0], [[1.0]]), ([0.0], [1.0, 2.0])])
    def test_ball_needs_dimensions_and_finite_extent(self, center, radius):
        with pytest.raises(InputError):
            ConvexDomain.ball(center, radius)

    @pytest.mark.parametrize("center, radius", [
        ([1e50, 0.0], 1.0), ([0.0, -1e50], 1e30), ([1.0], 1e-17),
        ([0.0], 0.0), ([0.0], -1.0)])
    def test_ball_radius_must_not_vanish_against_the_centre(self, center,
                                                            radius):
        # centre 1e50 and radius 1 gave a ball with no width on its first
        # axis, and the submartingale weights divided by that width
        with pytest.raises(InputError, match="ball radius"):
            ConvexDomain.ball(center, radius)
        ConvexDomain.ball(center, 1e36 if max(map(abs, center)) else 1e-17)

    def test_widest_finite_domains_accepted(self):
        for dom in (ConvexDomain.ball([0.0], 1e50),
                    ConvexDomain.ball([-1e50], 1e50),
                    ConvexDomain.box([-1e50], [1e50])):
            x = dom.sample_interior(np.random.default_rng(0), 16)
            assert np.all(np.isfinite(x)) and np.all(dom.contains_all(x))
            assert np.all(np.isfinite(_row_sumsq(x[:, None] - x[None, :])))
        far = np.array([[-1e50], [1e50]])
        assert np.isfinite(_row_sumsq(far[1] - far[0]))


    def test_bounds_are_read_only_copies(self):
        # a caller's edit of its bound arrays used to reach the domain: hi
        # edited below lo left a box with hi < lo
        lo, hi, c = np.zeros(2), np.ones(2), np.zeros(2)
        box, ball = ConvexDomain.box(lo, hi), ConvexDomain.ball(c, 1.0)
        hi[0], c[0] = -1.0, 5.0
        assert np.all(box.hi > box.lo) and np.all(ball.center == 0.0)
        for a in (box.lo, box.hi, ball.center):
            with pytest.raises(ValueError):
                a[0] = 7.0


class TestConfigRoundTrip:
    def test_box_and_ball(self):
        box = ConvexDomain.from_config({"kind": "box", "lo": [0.0, -1.0],
                                        "hi": [1.0, 2.0]})
        assert box.kind == "box" and box.lo.tolist() == [0.0, -1.0]
        assert box.hi.tolist() == [1.0, 2.0]
        ball = ConvexDomain.from_config({"kind": "ball", "center": [0.1],
                                         "radius": 0.9})
        assert ball.kind == "ball" and ball.center.tolist() == [0.1]
        assert ball.radius == 0.9

    @pytest.mark.parametrize("cfg", [
        {"kind": "box", "lo": [0.0], "hi": [1.0], "extra": 1},
        {"kind": "box", "lo": [0.0]},
        {"kind": "box", "lo": [0.0], "hi": [1.0], "radius": 1.0},
        {"kind": "ball", "center": [0.0], "radius": 1.0, "lo": [0.0]},
        {"kind": "ball", "center": [0.0], "radius": "1"},
        {"kind": "ball", "center": [0.0], "radius": True},
        {"kind": "ball", "center": [0.0], "radius": [1.0]},
        {"kind": "ball", "center": ["0"], "radius": 1.0},
        {"kind": "box", "lo": [True], "hi": [2.0]},
        {"kind": "box", "lo": [0.0], "hi": "1"},
        {"kind": ["box"], "lo": [0.0], "hi": [1.0]}])
    def test_from_config_strict(self, cfg):
        with pytest.raises(InputError):
            ConvexDomain.from_config(cfg)

    def test_from_config_takes_integers_and_scalars(self):
        dom = ConvexDomain.from_config({"kind": "ball", "center": 0, "radius": 1})
        assert dom.dimension == 1 and dom.radius == 1.0


class TestToleranceScalesWithTheDomain:
    """The membership and normal tolerances are relative to max(1, the
    largest bound magnitude): a coordinate near 1e6 is known only to about
    1e-10, so a fixed 1e-12 band called rounded boundary points exterior."""

    def test_point_rounded_past_a_large_sphere_is_on_it(self):
        # 1.16e-10 past the radius; the same point scaled to the unit ball
        # was already on its sphere
        x = np.array([707106.7811865476, 707106.7811865476])
        assert ConvexDomain.ball([0.0, 0.0], 1e6).contains(x) == BOUNDARY
        assert ConvexDomain.ball([0.0, 0.0], 1.0).contains(x / 1e6) == BOUNDARY

    @pytest.mark.parametrize("center, radius", [
        ([0.0, 0.0], 1e6), ([3e6, -2e6], 1e6), ([0.0, 0.0], 1e9),
        ([0.0, 0.0], 1e12), ([-4e12, 2.5e12], 1e12)],
        ids=["1e6", "1e6_off_centre", "1e9", "1e12", "1e12_off_centre"])
    def test_projected_points_and_boundary_normals(self, center, radius):
        dom = ConvexDomain.ball(center, radius)
        rng = np.random.default_rng(17)
        x = dom.center + radius * rng.normal(0.0, 2.0, size=(1000, 2))
        p = dom.project(x)
        moved = np.any(p != x, axis=-1)
        assert moved.sum() > 500
        assert np.all(dom.contains_all(p))
        assert all(dom.contains(q) == BOUNDARY for q in p[moved])
        for pts in (p[moved], dom.sample_boundary(rng, 256)):
            n = dom.normals_at(pts)
            assert np.allclose(np.linalg.norm(n, axis=-1), 1.0)
            assert np.allclose(n, (pts - dom.center) / radius)

    def test_factor_is_the_largest_bound_magnitude_at_least_1(self):
        for dom in (ConvexDomain.box([0.0], [1.0]),
                    ConvexDomain.ball([0.0, 0.0], 1.0),
                    ConvexDomain.ball([0.3, -0.2], 0.8)):
            assert dom._scale == 1.0
        assert ConvexDomain.box([-3.0, 0.0], [2.0, 1.0])._scale == 3.0
        assert ConvexDomain.ball([1.0, -5.0], 2.0)._scale == 5.0


# -- row norms: bitwise the np.linalg.norm formulas --------------------------------

def _project_reference(dom, x):
    """``ConvexDomain.project`` with its ``np.linalg.norm`` formula: a ball
    moves only the rows with r > R."""
    x = np.asarray(x, dtype=float)
    if dom.kind == "box":
        return np.clip(x, dom.lo, dom.hi)
    delta = x - dom.center
    r = np.linalg.norm(delta, axis=-1, keepdims=True)
    scale = dom.radius / np.where(r > dom.radius, r, 1.0)
    return np.where(r > dom.radius, dom.center + delta * scale, x)


def _contains_all_reference(dom, x):
    eps = BOUNDARY_TOL
    if dom.kind == "box":
        return (np.all(x >= dom.lo - eps, axis=-1)
                & np.all(x <= dom.hi + eps, axis=-1))
    return np.linalg.norm(x - dom.center, axis=-1) <= dom.radius + eps


def _normals_at_reference(dom, x):
    eps = max(BOUNDARY_TOL, 1e-9)
    if dom.kind == "ball":
        delta = x - dom.center
        r = np.linalg.norm(delta, axis=-1, keepdims=True)
        on = np.abs(r - dom.radius) <= eps
        return np.where(on, delta / np.where(r == 0, 1.0, r), 0.0)
    n = np.zeros_like(x)
    n -= (x <= dom.lo + eps).astype(float)
    n += (x >= dom.hi - eps).astype(float)
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    return np.where(norms > 0, n / np.where(norms == 0, 1.0, norms), 0.0)


def _domains(d):
    return (ConvexDomain.ball(np.zeros(d), 1.0),
            ConvexDomain.ball(np.linspace(-0.3, 0.4, d), 1.3),
            ConvexDomain.box(np.full(d, -1.0), np.linspace(0.5, 2.0, d)))


def _edge_points(dom, rng):
    """(M, d) points: the centre, exactly on the sphere or the faces, signed
    zeros, corners, and random points inside and outside."""
    d = dom.dimension
    eye = np.eye(d)
    if dom.kind == "ball":
        mid, half = dom.center, np.full(d, dom.radius)
        sphere = np.concatenate([dom.center + dom.radius * eye,
                                 dom.center - dom.radius * eye])
    else:
        mid, half = (dom.lo + dom.hi) / 2.0, (dom.hi - dom.lo) / 2.0
        sphere = np.concatenate([np.where(eye > 0, dom.hi, mid),
                                 np.where(eye > 0, dom.lo, mid)])
    signed = np.full((3, d), -0.0)
    signed[1, ::2] = 0.0
    signed[2, 0] = -2.0 * half[0]
    cloud = mid + half * rng.normal(0.0, 1.2, size=(40, d))
    return np.concatenate([mid[None], sphere, signed,
                           (mid - 3.0 * half)[None], (mid + half)[None], cloud])


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRowNormBitwise:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_project_batches(self, d):
        rng = np.random.default_rng(d)
        for dom in _domains(d):
            x = _edge_points(dom, rng)
            for batch in (x, x.reshape(1, -1, d), np.stack([x, x[::-1]])):
                assert _same_bytes(dom.project(batch),
                                   _project_reference(dom, batch))

    @pytest.mark.parametrize("d", range(1, 10))
    def test_project_single_points(self, d):
        rng = np.random.default_rng(100 + d)
        for dom in _domains(d):
            for x in _edge_points(dom, rng):
                assert _same_bytes(dom.project(x), _project_reference(dom, x))

    @pytest.mark.parametrize("d", range(1, 10))
    def test_project_into_out(self, d):
        """``project(x, out=buf)`` writes the bytes of ``project(x)`` into
        ``buf`` and returns it, a contiguous or a strided one, for batches
        and single points, signed zeros among them."""
        rng = np.random.default_rng(900 + d)
        for dom in _domains(d):
            xs = _edge_points(dom, rng)
            for x in (xs, np.stack([xs, xs[::-1]]), *xs):
                want = dom.project(x)
                assert _same_bytes(want, _project_reference(dom, x))
                wide = np.full((*x.shape[:-1], 2 * d), np.nan)
                for buf in (np.full(x.shape, np.nan), wide[..., ::2]):
                    assert dom.project(x, out=buf) is buf
                    assert _same_bytes(buf, want)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_step_overshoot_norm(self, d):
        """``_step`` writes p = project(y) into its ``out`` and returns
        dK = y - p, and the ``_row_norm`` of dK, whose sign is the hit, is
        ``np.linalg.norm(y - p, axis=-1)``: for a batch and each point."""
        rng = np.random.default_rng(300 + d)
        for dom in _domains(d):
            mid = (dom.center if dom.kind == "ball"
                   else (dom.lo + dom.hi) / 2.0)
            xs = _edge_points(dom, rng)
            for x in (xs, *xs):
                zero, noise = np.zeros_like(x), x - mid
                y = mid + (zero * 1.0 + noise)
                p = np.empty(x.shape)
                dK = _step(dom, mid, zero, None, noise, 1.0, p)
                ref = _project_reference(dom, y)
                assert _same_bytes(p, ref)
                assert _same_bytes(dK, y - p)
                assert _same_bytes(_row_norm(dK),
                                   np.linalg.norm(y - ref, axis=-1))

    @pytest.mark.parametrize("d", range(1, 10))
    def test_contains_all_and_normals_at(self, d):
        rng = np.random.default_rng(200 + d)
        for dom in _domains(d):
            x = _edge_points(dom, rng)
            for batch in (x, np.stack([x, x[::-1]]), x[0], x[1]):
                assert _same_bytes(dom.contains_all(batch),
                                   _contains_all_reference(dom, batch))
                assert _same_bytes(dom.normals_at(batch),
                                   _normals_at_reference(dom, batch))


class TestClosureFixed:
    """A ball's projection moves only the points outside it: every point of
    the closure, centred ball or not, comes back byte for byte."""

    @staticmethod
    def _closure_points(dom, rng):
        x = np.concatenate([_edge_points(dom, rng),
                            dom.sample_interior(rng, 200),
                            dom.sample_boundary(rng, 50)])
        return x[np.linalg.norm(x - dom.center, axis=-1) <= dom.radius]

    @pytest.mark.parametrize("d", range(1, 10))
    def test_batched(self, d):
        rng = np.random.default_rng(400 + d)
        for dom in _domains(d)[:2]:
            x = self._closure_points(dom, rng)
            assert len(x) > 200
            for batch in (x, np.stack([x, x[::-1]])):
                assert _same_bytes(dom.project(batch), batch)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_single_points(self, d):
        rng = np.random.default_rng(500 + d)
        for dom in _domains(d)[:2]:
            for x in self._closure_points(dom, rng):
                assert _same_bytes(dom.project(x), x)


class TestRowSumsq:
    """``_row_sumsq`` is ``np.sum(x ** 2, axis=-1)`` and ``_row_norm`` is
    ``np.linalg.norm(x, axis=-1)``, bit for bit, on both sides of numpy's
    switch to pairwise sums at d = 8 and for single points."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_batches_and_single_points(self, d):
        rng = np.random.default_rng(600 + d)
        x = rng.normal(size=(2, 33, d)) * np.logspace(-3, 3, 33)[:, None]
        x[0, 0] = -0.0
        for v in (x, x[1], x[0, 0], x[1, 5]):
            assert _same_bytes(_row_sumsq(v), np.sum(v ** 2, axis=-1))
            assert _same_bytes(_row_norm(v), np.linalg.norm(v, axis=-1))


class TestRowSumsqAnyLayout:
    """``_row_sumsq`` and ``_row_norm`` of a Fortran-ordered x, or of an x
    with a strided last axis, are the sums of squares of its C-ordered copy
    and their roots, bit for bit: numpy sums pairwise only along a
    contiguous last axis, so the layout rule for d >= 8 is the helper's."""

    @pytest.mark.parametrize("d", [*range(1, 10), 16])
    def test_fortran_and_strided(self, d):
        rng = np.random.default_rng(700 + d)
        x = rng.normal(size=(2, 33, d)) * np.logspace(-3, 3, 33)[:, None]
        wide = np.full((*x.shape[:-1], 2 * d), np.nan)
        wide[..., ::2] = x
        for v in (np.asfortranarray(x), np.asfortranarray(x[1]),
                  wide[..., ::2], wide[1, :, ::2], wide[1, 5, ::2]):
            want = np.sum(np.ascontiguousarray(v) ** 2, axis=-1)
            assert _same_bytes(_row_sumsq(v), want)
            assert _same_bytes(_row_norm(v), np.sqrt(want))


class TestProjectCopies:
    """Without ``out``, a ball's projection is always a new array, since it
    writes the rows outside into a copy: writing into the result never
    changes the input."""

    @staticmethod
    def _assert_new_array(dom, x):
        keep = x.copy()
        p = dom.project(x)
        assert not np.shares_memory(p, x)
        p[...] = np.nan
        assert _same_bytes(x, keep)

    @pytest.mark.parametrize("d", (1, 2, 3, 9))
    def test_batches(self, d):
        rng = np.random.default_rng(700 + d)
        for dom in _domains(d)[:2]:
            mixed = _edge_points(dom, rng)
            inside = dom.sample_interior(rng, len(mixed))
            r = np.linalg.norm(mixed - dom.center, axis=-1)
            assert np.any(r > dom.radius) and np.any(r <= dom.radius)
            assert _same_bytes(dom.project(inside), inside)
            batch = np.stack([mixed, mixed[::-1], inside])
            assert _same_bytes(dom.project(batch),
                               np.stack([dom.project(b) for b in batch]))
            for x in (inside, mixed, batch):
                self._assert_new_array(dom, x)

    @pytest.mark.parametrize("d", (1, 2, 3, 8, 9))
    def test_single_point_is_a_one_row_batch(self, d):
        """A single point takes the batched path, its mask of rows outside
        0-d (from a numpy scalar norm in d >= 8): bit for bit row 0 of the
        point projected as a one-row batch, and a new array."""
        rng = np.random.default_rng(850 + d)
        for dom in _domains(d)[:2]:
            xs = _edge_points(dom, rng)  # inside, outside, on it, -0.0
            r = np.linalg.norm(xs - dom.center, axis=-1)
            assert np.any(r > dom.radius) and np.any(r == dom.radius)
            assert np.any(r < dom.radius)
            for x in xs:
                assert _same_bytes(dom.project(x), dom.project(x[None])[0])
                self._assert_new_array(dom, x)

    @pytest.mark.parametrize("d", (1, 2, 3, 9))
    def test_single_points(self, d):
        rng = np.random.default_rng(800 + d)
        for dom in _domains(d)[:2]:
            outside = dom.center + 2.0 * dom.radius * np.eye(d)[0]
            for x in (dom.sample_interior(rng, 1)[0], dom.center.copy(),
                      outside):
                self._assert_new_array(dom, x)
