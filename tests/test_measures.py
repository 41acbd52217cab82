import gc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

from rldp import measures
from rldp import rng as rngmod
from rldp.ensemble import empirical_measure_at, simulate_particle_system
from rldp.errors import InputError
from rldp.integrator import TimeGrid
from rldp.measures import _bl_dictionary, _row_norm, bl_distance
from rldp.model import MeasureSummary, model_from_config


def unequal_masses(rng, points):
    """The uniform measure on ``points`` with each atom repeated 1 to 4
    times: a measure of unequal masses, as a run can make one."""
    return MeasureSummary.from_points(
        np.repeat(points, rng.integers(1, 5, len(points)), axis=0))


def bl_lp_oracle(mu, nu):
    """Brute-force dual LP with the FULL pairwise Lipschitz constraint set.

    Independent of the adjacent-constraint formulation used by the library.
    The gaps are Euclidean, so it is exact in any dimension: a function
    with |f| <= 1 and Lip(f) <= 1 on the finite support extends to the whole
    space with both bounds (McShane's extension, clipped to [-1, 1]).
    """
    pts = np.concatenate([mu.points, nu.points])
    delta = np.concatenate([mu.weights, -nu.weights])
    m = len(pts)
    rows = []
    rhs = []
    for i in range(m):
        for j in range(i + 1, m):
            gap = float(np.linalg.norm(pts[i] - pts[j]))
            row = np.zeros(m)
            row[i], row[j] = 1.0, -1.0
            rows.append(row.copy())
            rhs.append(gap)
            rows.append(-row)
            rhs.append(gap)
    res = linprog(-delta, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=(-1.0, 1.0), method="highs")
    assert res.success
    return min(2.0, max(0.0, -res.fun))


def closure_bl_dictionary(mu, nu, size, seed):
    """Reference for the d >= 2 dictionary bound: one closure per function,
    each evaluated alone on both measures."""
    d = mu.dimension
    gen = rngmod.substream(seed, rngmod.DICT)
    support = np.concatenate([mu.points, nu.points], axis=0)
    lo, hi = support.min(axis=0), support.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    funcs = []
    n_affine = size // 2
    dirs = gen.standard_normal((n_affine, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = lo + gen.uniform(0.0, 1.0, size=(n_affine, d)) * span
    for u, c in zip(dirs, centers):
        funcs.append(lambda z, u=u, c=c: np.clip((z - c) @ u, -1.0, 1.0))
    n_radial = size - n_affine
    centers = lo + gen.uniform(0.0, 1.0, size=(n_radial, d)) * span
    offsets = gen.uniform(0.0, 2.0, size=n_radial)
    for c, a in zip(centers, offsets):
        funcs.append(lambda z, c=c, a=a: np.clip(
            a - np.linalg.norm(z - c, axis=-1), -1.0, 1.0))
    gap = nu.mean - mu.mean
    norm = np.linalg.norm(gap)
    if norm > 0:
        u = gap / norm
        mid = (mu.mean + nu.mean) / 2.0
        funcs.append(lambda z, u=u, mid=mid: np.clip((z - mid) @ u, -1.0, 1.0))

    best = 0.0
    for f in funcs:
        val = abs(float(mu.weights @ f(mu.points) - nu.weights @ f(nu.points)))
        best = max(best, val)
    return min(2.0, best)


def merged_signed_atoms_loop(mu, nu):
    """Reference merge of two 1D supports: a stable sort, then a loop adding
    the signed weights mu - nu of equal atoms in order."""
    pts = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    wts = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(pts, kind="stable")
    keep_pts, keep_wts = [], []
    for p, w in zip(pts[order], wts[order]):
        if keep_pts and p == keep_pts[-1]:
            keep_wts[-1] += w
        else:
            keep_pts.append(p)
            keep_wts.append(w)
    return np.asarray(keep_pts), np.asarray(keep_wts)


def _symmetric_cloud(rng, n, d):
    """n atoms (n even) on a dyadic grid, symmetric about 0: the mean is 0
    exactly whatever order the weighted sum runs in."""
    half = rng.integers(-64, 65, size=(n // 2, d)) / 64.0
    return MeasureSummary.from_points(np.concatenate([half, -half]))


DICTIONARY_SIZES = (0, 1, 2, 255, 256, 257)


class TestBLDictionaryBlocks:
    """The blocked evaluator is bitwise the one-function-at-a-time one."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_closure_reference(self, d):
        rng = np.random.default_rng(10 + d)
        nu = MeasureSummary.from_points(rng.uniform(-1, 1, (4096, d)))
        for n in (1, 7, 64, 1024):
            mu = MeasureSummary.from_points(rng.uniform(-0.8, 1.2, (n, d)))
            for size in DICTIONARY_SIZES:
                for seed in (0, 7):
                    assert _bl_dictionary(mu, nu, size, seed) == \
                        closure_bl_dictionary(mu, nu, size, seed), (n, size, seed)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_closure_reference_equal_means(self, d):
        rng = np.random.default_rng(20 + d)
        nu = _symmetric_cloud(rng, 4096, d)
        for mu in (MeasureSummary.dirac(np.zeros(d)),
                   _symmetric_cloud(rng, 64, d)):
            assert np.array_equal(mu.mean, nu.mean)  # no witness row
            for size in DICTIONARY_SIZES:
                got = _bl_dictionary(mu, nu, size, 3)
                assert got == closure_bl_dictionary(mu, nu, size, 3)
                if size == 0:
                    assert got == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_dirac_against_cloud(self, d):
        rng = np.random.default_rng(30 + d)
        nu = MeasureSummary.from_points(rng.uniform(-1, 1, (4096, d)))
        mu = MeasureSummary.dirac(rng.uniform(-1, 1, d))
        for size in DICTIONARY_SIZES:
            assert _bl_dictionary(mu, nu, size, 1) == \
                closure_bl_dictionary(mu, nu, size, 1)
            assert _bl_dictionary(nu, mu, size, 1) == \
                closure_bl_dictionary(nu, mu, size, 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_memo_is_transparent(self, d):
        # nu's box is [-1, 1]^d: its own box is the joint box against every
        # partner inside it, and those calls read nu's integrals back
        rng = np.random.default_rng(40 + d)
        nu = _symmetric_cloud(rng, 4096, d)
        partners = [MeasureSummary.from_points(rng.uniform(-0.9, 0.9, (n, d)))
                    for n in (7, 64, 1024)]
        partners += [MeasureSummary.from_points(rng.uniform(-0.8, 1.2, (n, d)))
                     for n in (7, 1024)]
        partners += [MeasureSummary.dirac(rng.uniform(-0.5, 0.5, d)),
                     MeasureSummary.dirac(np.zeros(d)),  # equal means
                     _symmetric_cloud(rng, 64, d)]       # equal means
        hits = 0
        for size, seed in ((256, 0), (255, 7)):
            for mu in partners:
                for a, b in ((mu, nu), (nu, mu)):
                    want = closure_bl_dictionary(a, b, size, seed)
                    for _ in range(2):
                        before = measures._own_box_integrals.cache_info().hits
                        assert _bl_dictionary(a, b, size, seed) == want
                        hits += measures._own_box_integrals.cache_info().hits > before
                    measures._own_box_integrals.cache_clear()
                    assert _bl_dictionary(a, b, size, seed) == want
        assert hits > 0

    def test_memo_is_keyed_on_the_atoms(self):
        rng = np.random.default_rng(50)
        half = rng.integers(-64, 65, size=(2048, 2)) / 64.0
        nu = MeasureSummary.from_points(np.concatenate([half, -half]))
        inner = np.all(np.abs(half) < 1.0, axis=1)
        half[inner] *= 0.5  # the box keeps its bits and the mean stays 0
        moved = np.concatenate([half, -half])
        other = MeasureSummary.from_points(moved)
        box = [np.concatenate([m.points.min(axis=0), m.points.max(axis=0)]).tobytes()
               for m in (nu, other)]
        assert box[0] == box[1]
        mu = _symmetric_cloud(rng, 64, 2)  # equal means: no witness row
        before = _bl_dictionary(mu, nu, 256, 0)
        assert before == closure_bl_dictionary(mu, nu, 256, 0)
        got = _bl_dictionary(mu, other, 256, 0)
        assert got == closure_bl_dictionary(mu, other, 256, 0) != before
        nu.points[:] = moved  # nu's atoms changed in place
        assert _bl_dictionary(mu, nu, 256, 0) == got

    def test_reference_integrated_once_per_joint_box(self, monkeypatch):
        # a chaos-like loop: 24 replicas against one 4096-atom reference, a
        # quarter of them drawn wider than it
        rng = np.random.default_rng(60)

        def disc(n, radius):
            x = rng.standard_normal((n, 2))
            x *= radius * np.sqrt(rng.uniform(0, 1, (n, 1))) / _row_norm(x)[:, None]
            return MeasureSummary.from_points(x)
        ref = disc(4096, 1.0)
        seen = []
        real = measures._integrals

        def spy(points, *rows):
            seen.append(len(points) == ref.n_atoms)
            return real(points, *rows)
        monkeypatch.setattr(measures, "_integrals", spy)
        measures._own_box_integrals.cache_clear()
        boxes = set()
        for n in (64, 256, 1024):
            for rep in range(8):
                replica = disc(n, 1.0 if rep % 4 else 1.05)
                support = np.concatenate([replica.points, ref.points])
                boxes.add(support.min(axis=0).tobytes() + support.max(axis=0).tobytes())
                bl_distance(replica, ref)
        assert len(seen) >= 24
        assert sum(seen) <= len(boxes) < 24

    def test_memo_keeps_no_ensemble_alive(self):
        model = model_from_config({"model": "m2", "domain": {
            "kind": "ball", "center": [0.0, 0.0], "radius": 1.0}})
        grid = TimeGrid(0.5, 8)
        ens = simulate_particle_system(model, 64, grid, seed=1)
        states = weakref.ref(ens.states)
        replica = empirical_measure_at(ens, grid.horizon)
        # a partner inside the replica's box, so that the replica is memoized
        inside = MeasureSummary.from_points((replica.points + replica.mean) / 2.0)
        measures._own_box_integrals.cache_clear()
        bl_distance(replica, inside)
        assert measures._own_box_integrals.cache_info().currsize == 1
        del ens, replica
        gc.collect()
        assert states() is None

    def test_memo_is_bounded(self):
        rng = np.random.default_rng(70)
        measures._own_box_integrals.cache_clear()
        for _ in range(3 * measures._MEMO_ENTRIES):
            mu = MeasureSummary.from_points(rng.uniform(-1, 1, (16, 2)))
            inside = MeasureSummary.from_points((mu.points + mu.mean) / 2.0)
            _bl_dictionary(mu, inside, 8, 0)
        info = measures._own_box_integrals.cache_info()
        assert info.misses == 3 * measures._MEMO_ENTRIES
        assert info.currsize == info.maxsize == measures._MEMO_ENTRIES
        lo, hi = mu.points.min(axis=0), mu.points.max(axis=0)
        values = measures._own_box_integrals(mu.points.tobytes(), 2,
                                             lo.tobytes() + hi.tobytes(), 8, 0)
        assert not values.flags.writeable

    @pytest.mark.parametrize("d", range(1, 10))
    def test_row_norm_is_numpy_norm(self, d):
        # guards the left-to-right summation order of numpy's reduction
        rng = np.random.default_rng(d)
        for shape in ((37, d), (5, 37, d), (1, d), (3, 1, d)):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, d)
            assert np.array_equal(_row_norm(x), np.linalg.norm(x, axis=-1))


class TestBLDistance:
    def test_identity(self):
        mu = MeasureSummary.from_points(np.array([[0.1], [0.7]]))
        assert bl_distance(mu, mu).value == 0.0

    def test_dirac_pair_formula(self):
        assert bl_distance(MeasureSummary.dirac([0.0]),
                           MeasureSummary.dirac([0.3])).value == pytest.approx(0.3, abs=1e-12)
        # saturation at 2 for far-apart points
        assert bl_distance(MeasureSummary.dirac([0.0]),
                           MeasureSummary.dirac([5.0])).value == pytest.approx(2.0, abs=1e-12)

    def test_half_half_vs_middle(self):
        mu = MeasureSummary.from_points(np.array([[0.0], [1.0]]))
        nu = MeasureSummary.dirac([0.5])
        assert bl_distance(mu, nu).value == pytest.approx(0.5, abs=1e-10)

    def test_matches_full_lp_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n1, n2 = rng.integers(1, 6, size=2)
            mu = MeasureSummary.from_points(rng.uniform(0, 3, (n1, 1)))
            nu = MeasureSummary.from_points(rng.uniform(0, 3, (n2, 1)))
            assert bl_distance(mu, nu).value == pytest.approx(
                bl_lp_oracle(mu, nu), abs=1e-8)

    def test_merged_support_matches_loop_reference(self, monkeypatch):
        from rldp import measures
        seen = []
        real = measures._lp()[0]

        def spy(c, **kw):
            seen.append((c, kw["b_ub"]))
            return real(c, **kw)

        monkeypatch.setattr(measures, "_lp", lambda: (spy, sparse))
        rng = np.random.default_rng(5)
        for _ in range(40):
            grid = int(rng.integers(2, 12))  # a coarse grid: many equal atoms
            n1, n2 = rng.integers(1, 40, size=2)
            mu = unequal_masses(rng, rng.integers(0, grid, (n1, 1)) / grid)
            nu = MeasureSummary.from_points(rng.integers(0, grid, (n2, 1)) / grid)
            atoms, delta = merged_signed_atoms_loop(mu, nu)
            seen.clear()
            measures._bl_exact_1d(mu, nu)
            if len(atoms) > 1 and np.any(np.abs(delta) > 1e-15):  # an LP
                c, b_ub = seen[0]
                assert (-c).tobytes() == delta.tobytes()
                assert np.diff(atoms).tobytes() == b_ub[:len(atoms) - 1].tobytes()

    def test_lp_matrix_matches_coo_assembly(self, monkeypatch):
        """The difference matrix from ``sparse.diags`` is the hand-built
        COO assembly entry for entry, and the value is that LP's, bit for
        bit, on pairs with shared atoms."""
        def coo_value(mu, nu):  # the value with the COO triplets
            atoms, _, where = np.unique(
                np.concatenate([mu.points[:, 0], nu.points[:, 0]]),
                return_index=True, return_inverse=True)
            delta = np.bincount(where, weights=np.concatenate(
                [mu.weights, -nu.weights]))
            m = atoms.shape[0]
            if np.all(np.abs(delta) <= 1e-15):
                return 0.0, None
            gaps = np.diff(atoms)
            rows = np.repeat(np.arange(2 * (m - 1)), 2)
            cols = np.tile(np.stack([np.arange(m - 1), np.arange(1, m)],
                                    axis=1).ravel(), 2)
            base = np.tile([-1.0, 1.0], m - 1)
            data = np.concatenate([base, -base])
            a_ub = sparse.csr_matrix((data, (rows, cols)),
                                     shape=(2 * (m - 1), m))
            res = linprog(-delta, A_ub=a_ub, b_ub=np.concatenate([gaps, gaps]),
                          bounds=(-1.0, 1.0), method="highs")
            return float(min(2.0, max(0.0, -res.fun))), a_ub

        seen = []
        real = measures._lp()[0]

        def spy(c, **kw):
            seen.append(kw["A_ub"])
            return real(c, **kw)

        monkeypatch.setattr(measures, "_lp", lambda: (spy, sparse))
        rng = np.random.default_rng(6)
        solved = 0
        for _ in range(50):
            grid = int(rng.integers(2, 16))  # a coarse grid: shared atoms
            n1, n2 = rng.integers(1, 30, size=2)
            mu = unequal_masses(rng, rng.integers(0, grid, (n1, 1)) / grid * 3)
            nu = MeasureSummary.from_points(
                rng.integers(0, grid, (n2, 1)) / grid * 3)
            seen.clear()
            value = measures._bl_exact_1d(mu, nu)
            ref, a_ub = coo_value(mu, nu)
            assert np.float64(value).tobytes() == np.float64(ref).tobytes()
            if a_ub is not None:
                solved += 1
                (got,) = seen
                assert got.format == "csr" and got.shape == a_ub.shape
                for attr in ("data", "indices", "indptr"):
                    assert (getattr(got, attr).tobytes()
                            == getattr(a_ub, attr).tobytes())
        assert solved >= 40

    def test_batched_summary_rejected(self):
        """A batch of measures is not one measure: ``InputError``, before
        numpy's stacking or scalar errors."""
        def batch(model, n):
            ens = simulate_particle_system(model, n, TimeGrid(0.5, 4),
                                           seed=1, replica=range(3))
            return ens.summaries[-1]

        box1 = model_from_config({"model": "m1", "domain": {
            "kind": "box", "lo": [0.0], "hi": [1.0]}})
        ball2 = model_from_config({"model": "m2", "domain": {
            "kind": "ball", "center": [0.0, 0.0], "radius": 1.0}})
        rng = np.random.default_rng(7)
        for model, other in (
                (box1, MeasureSummary.from_points(rng.uniform(0, 1, (7, 1)))),
                (ball2, MeasureSummary.from_points(rng.normal(0, 0.3, (9, 2)))),
                (ball2, MeasureSummary.dirac([0.1, 0.2]))):
            many = batch(model, 5)
            for pair in ((many, other), (other, many)):
                with pytest.raises(InputError, match="batch"):
                    bl_distance(*pair)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(1)
        for d in (1, 2):
            mu = MeasureSummary.from_points(rng.uniform(0, 1, (4, d)))
            nu = MeasureSummary.from_points(rng.uniform(0, 1, (3, d)))
            assert bl_distance(mu, nu).value == bl_distance(nu, mu).value

    def test_triangle_inequality_1d(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ms = [MeasureSummary.from_points(rng.uniform(0, 2, (3, 1)))
                  for _ in range(3)]
            ab = bl_distance(ms[0], ms[1]).value
            bc = bl_distance(ms[1], ms[2]).value
            ac = bl_distance(ms[0], ms[2]).value
            assert ac <= ab + bc + 1e-9

    def test_bounded_by_wasserstein(self):
        # BL <= W1 always; equality when supports are close together
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(0, 0.4, 5)
            b = rng.uniform(0, 0.4, 4)
            mu = MeasureSummary.from_points(a[:, None])
            nu = MeasureSummary.from_points(b[:, None])
            w1 = wasserstein_distance(a, b)
            val = bl_distance(mu, nu).value
            assert val <= w1 + 1e-9
            # diameter < 1 and measures on a small set: f unconstrained by the
            # sup bound, so the optima coincide
            assert val == pytest.approx(w1, abs=1e-8)

    def test_dictionary_mode_lower_bounds_exact(self):
        rng = np.random.default_rng(4)
        mu = MeasureSummary.from_points(rng.uniform(0, 1, (6, 2)))
        nu = MeasureSummary.from_points(rng.uniform(0, 1, (5, 2)))
        est = bl_distance(mu, nu)
        assert 0.0 <= est.value <= 2.0
        assert est.method == "dictionary"

    def test_dictionary_size_zero_is_the_witness(self):
        mu = MeasureSummary.from_points(np.array([[0.0, 0.0], [1.0, 0.0]]))
        nu = MeasureSummary.from_points(np.array([[0.0, 0.5], [1.0, 0.5]]))
        # only the witness along (0, 1): |int (z - mid) . u d(mu - nu)| = 0.5
        assert _bl_dictionary(mu, nu, 0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            bl_distance(MeasureSummary.dirac([0.0]),
                        MeasureSummary.dirac([0.0, 0.0]))


class TestBLAgainstDirac:
    """BL(mu, delta_y) = sum_i w_i min(|x_i - y|, 2), exact in any dimension."""

    def test_1d_cloud_matches_lp_oracle(self):
        rng = np.random.default_rng(40)
        saturated = 0
        for _ in range(40):
            n = int(rng.integers(2, 30))
            mu = unequal_masses(rng, rng.uniform(-3, 3, (n, 1)))
            y = rng.uniform(-1, 1, 1)
            nu = MeasureSummary.dirac(y)
            saturated += int(np.sum(np.abs(mu.points[:, 0] - y[0]) > 2.0))
            est = bl_distance(mu, nu)
            assert est.method == "exact_1d"
            assert est.value == pytest.approx(bl_lp_oracle(mu, nu), abs=1e-12)
        assert saturated > 0  # the min(., 2) cap is exercised

    @pytest.mark.parametrize("d", [2, 3])
    def test_cloud_matches_euclidean_lp_oracle(self, d):
        rng = np.random.default_rng(50 + d)
        for width in (0.5, 3.0):  # inside, and beyond, the cap at 2
            for _ in range(8):
                n = int(rng.integers(2, 24))
                mu = MeasureSummary.from_points(
                    rng.uniform(-width, width, (n, d)))
                nu = MeasureSummary.dirac(rng.uniform(-0.5, 0.5, d))
                est = bl_distance(mu, nu)
                assert est.method == "exact_dirac"
                assert est.value == pytest.approx(bl_lp_oracle(mu, nu),
                                                  abs=1e-12)
                assert est.value >= _bl_dictionary(mu, nu, 256, 0)
                assert est.value >= _bl_dictionary(nu, mu, 256, 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_symmetric(self, d):
        rng = np.random.default_rng(60 + d)
        for n in (2, 5, 64):
            mu = unequal_masses(rng, rng.uniform(-2, 2, (n, d)))
            nu = MeasureSummary.dirac(rng.uniform(-1, 1, d))
            assert bl_distance(mu, nu) == bl_distance(nu, mu)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_two_diracs(self, d):
        rng = np.random.default_rng(70 + d)
        for scale in (0.01, 0.5, 3.0):
            x, y = rng.uniform(-scale, scale, (2, d))
            got = bl_distance(MeasureSummary.dirac(x), MeasureSummary.dirac(y))
            assert got == bl_distance(MeasureSummary.dirac(y),
                                      MeasureSummary.dirac(x))
            # the row norm numpy takes over an (n, d) array, to the bit; in
            # d = 1 this is the norm of the vector itself
            row = float(np.linalg.norm((x - y)[None, :], axis=-1)[0])
            assert got.value == min(2.0, row)
            if d == 1:
                assert got.value == min(2.0, float(np.linalg.norm(x - y)))
            assert got.value == pytest.approx(
                min(2.0, float(np.linalg.norm(x - y))), rel=1e-15)

    @pytest.mark.parametrize("d", [1, 3])
    def test_far_dirac_saturates_without_overflow(self, d):
        # |x - y|^2 overflows for these y; the value is 2 all the same
        rng = np.random.default_rng(75 + d)
        mu = unequal_masses(rng, rng.uniform(0, 1, (9, d)))
        saturated = min(2.0, float(np.full(mu.n_atoms, 2.0) @ mu.weights))
        for y in (1e200, -1e308, np.finfo(float).max):
            nu = MeasureSummary.dirac(np.full(d, y))
            assert bl_distance(mu, nu).value == bl_distance(nu, mu).value == saturated
        # near y, saturated rows included, the value is the unclipped sum's
        nu = MeasureSummary.dirac(rng.uniform(-2, 3, d))
        rows = np.linalg.norm(mu.points - nu.points[0], axis=-1)
        assert bl_distance(mu, nu).value == min(
            2.0, float(np.minimum(rows, 2.0) @ mu.weights))

    def test_rate_on_terminal_point_solves_no_lp(self, monkeypatch):
        from rldp import measures
        from rldp.controls import constant_family
        from rldp.geometry import ConvexDomain
        from rldp.ldp import estimate_rate
        from rldp.model import make_m1

        def refuse(*args, **kwargs):
            raise AssertionError("no LP or dictionary against a Dirac")

        monkeypatch.setattr(measures, "_lp", refuse)
        monkeypatch.setattr(measures, "_bl_dictionary", refuse)
        m = make_m1(ConvexDomain.box([0.0], [1.0]), sigma_scale=0.5)
        est = estimate_rate(m, MeasureSummary.dirac([0.7]), [1.0, 4.0],
                            constant_family(1, bound=2.0), 8,
                            TimeGrid(0.25, 8), 4, 10, seed=3, radius=0.3)
        assert all(0.0 < v < 2.0 for v in est.achieved_distances)

