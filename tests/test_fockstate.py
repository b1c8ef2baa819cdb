import itertools
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import hamiltonians
from bosonlab import tensorstate as ts
from bosonlab.errors import ConfigError
from bosonlab.experiments import default_phi0
from bosonlab.meanfield import Condensate, condensate_at, hartree_evolve, one_body_norm
from bosonlab.model import build_model, validate_config

CELL = 0.5


@pytest.fixture(scope="module")
def space():
    return fs.FockSpace(fs.enumerate_basis(3, 3), CELL)


def random_phi(m, rng):
    phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return phi / np.sqrt(CELL * np.vdot(phi, phi).real)


def block(states):
    """The block (members, dim) of states on one space."""
    return fs.FockState(np.stack([psi.amps for psi in states]), states[0].space)


def two_body_apply(kernel, state):
    """a^+ a^+ (K . a a psi) for a (P, P) pair-channel kernel K, the
    one-row case of ``fs.two_body_sums``, a stack of one kernel."""
    out = fs.two_body_sums(block([state]), np.asarray(kernel)[None], [[(0, 0)]])
    return fs.FockState(out.amps[0], state.space)


def pair_apply(x, y, state):
    """sum_{i != j} X_i Y_j; ordered pairs counted."""
    return two_body_apply(fold_oracle(np.kron(y, x), x.shape[0]), state)


class TestEnumerateBasis:
    def test_single_site(self):
        basis = fs.enumerate_basis(1, 5)
        assert basis.dim == 1
        assert basis.occupations.tolist() == [[5]]

    def test_two_sites_two_particles(self):
        basis = fs.enumerate_basis(2, 2)
        assert basis.occupations.tolist() == [[2, 0], [1, 1], [0, 2]]

    def test_stars_and_bars_count(self):
        basis = fs.enumerate_basis(4, 3)
        assert basis.dim == 20 == math.comb(6, 3)

    def test_rows_sum_to_n(self):
        basis = fs.enumerate_basis(3, 4)
        assert np.all(basis.occupations.sum(axis=1) == 4)
        # no duplicates
        assert len({tuple(r) for r in basis.occupations.tolist()}) == basis.dim

    def test_ceiling_guard(self):
        with pytest.raises(ConfigError):
            fs.enumerate_basis(30, 30)


def brute_force_basis(m, n):
    """Occupation vectors with sum n in descending lexicographic order; none below n = 0."""
    rows = [c for c in itertools.product(range(max(n, 0) + 1), repeat=m) if sum(c) == n]
    return sorted(rows, reverse=True)


def brute_force_ladder(m, n, moves):
    """Ladder gathers from n particles down by the given occupation moves, by
    direct enumeration with dict indices; a move's factor is the product of
    the annihilators' sqrt(occupation) taken one particle at a time."""
    drop = sum(moves[0])
    upper, lower = brute_force_basis(m, n), brute_force_basis(m, n - drop)
    up_index = {row: i for i, row in enumerate(upper)}
    low_index = {row: i for i, row in enumerate(lower)}
    annihilate = np.zeros((len(moves), len(lower)), dtype=np.int64)
    factor = np.zeros((len(moves), len(lower)))
    for u, row in enumerate(lower):
        for p, move in enumerate(moves):
            raised, weight = list(row), 1.0
            for s in range(m):
                for _ in range(move[s]):
                    raised[s] += 1
                    weight *= math.sqrt(raised[s])
            annihilate[p, u] = up_index[tuple(raised)]
            factor[p, u] = weight
    # per upper row, the creation sources of the moves that reach it, in move
    # order, padded with the pad slot to the longest such list (at least one)
    sources = []
    for row in upper:
        lowered = [tuple(a - b for a, b in zip(row, move)) for move in moves]
        sources.append([p * len(lower) + low_index[low]
                        for p, low in enumerate(lowered) if min(low) >= 0])
    slots = max([1] + [len(col) for col in sources])
    create = np.full((slots, len(upper)), len(moves) * len(lower), dtype=np.int64)
    for t, col in enumerate(sources):
        create[: len(col), t] = col
    return lower, annihilate, factor, create


def unit_moves(m):
    return [tuple(int(r == s) for r in range(m)) for s in range(m)]


def pair_moves(m):
    """e_s + e_s' for s <= s', in the order of itertools.combinations_with_replacement."""
    return [tuple(sum(int(r == s) for s in pair) for r in range(m))
            for pair in itertools.combinations_with_replacement(range(m), 2)]


class TestHopTables:
    @pytest.mark.parametrize("m,n", [(1, 0), (1, 5), (3, 0), (2, 3), (3, 4), (4, 3), (5, 2), (2, 1),
                                     (6, 3), (9, 2)])
    def test_match_brute_force_enumeration(self, m, n):
        space = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
        assert space.basis.occupations.tolist() == [list(r) for r in brute_force_basis(m, n)]
        for moves, ladder in zip((unit_moves(m), pair_moves(m)), space.ladders):
            lower, annihilate, factor, create = brute_force_ladder(m, n, moves)
            assert ladder.lower.occupations.shape == (len(lower), m)
            assert ladder.lower.occupations.tolist() == [list(r) for r in lower]
            assert np.array_equal(ladder.annihilate, annihilate)
            assert np.allclose(ladder.factor, factor, rtol=0, atol=1e-14)
            assert np.array_equal(ladder.create, create)

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 4), (4, 0), (5, 3)])
    def test_index_of_is_basis_position(self, m, n):
        basis = fs.enumerate_basis(m, n)
        assert [basis.index_of(row) for row in basis.occupations] == list(range(basis.dim))

    def test_index_of_rejects_foreign_vectors(self):
        basis = fs.enumerate_basis(3, 2)
        for occ in [(1, 1, 1), (3, -1, 0), (2, 0)]:
            with pytest.raises(KeyError):
                basis.index_of(occ)


class TestDgamma:
    def test_identity_counts_particles(self, space):
        rng = np.random.default_rng(0)
        psi = fs.random_fock(space, rng)
        out = fs.dgamma_apply(np.eye(3), psi)
        assert np.allclose(out.amps, 3 * psi.amps)

    def test_mode_number_operator(self, space):
        number = np.diag([0.0, 1.0, 0.0])
        for b, occ in enumerate(space.basis.occupations):
            unit = fs.FockState(np.zeros(space.basis.dim, dtype=complex), space)
            unit.amps[b] = 1.0
            out = fs.dgamma_apply(number, unit)
            assert out.amps[b] == pytest.approx(occ[1])
            out.amps[b] = 0.0
            assert np.abs(out.amps).max() == 0.0

    def test_matches_tensor_lift(self, space):
        rng = np.random.default_rng(1)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        via_fock = fs.embed(fs.dgamma_apply(mat, fs.extract(psi, space)))
        direct = ts.apply_one_body_sum(mat, psi)
        assert (via_fock - direct).norm() <= 1e-12

    def test_hermitian_lift_is_hermitian(self, space):
        rng = np.random.default_rng(2)
        herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm = herm + herm.conj().T
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        lhs = b.inner(fs.dgamma_apply(herm, a))
        rhs = fs.dgamma_apply(herm, b).inner(a)
        assert lhs == pytest.approx(rhs, abs=1e-12)


    def test_block_lift_is_the_lift_of_each_row(self, space):
        rng = np.random.default_rng(23)
        states = [fs.random_fock(space, rng) for _ in range(3)]
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = fs.dgamma_apply(x, block(states))
        assert out.amps.shape == (3, space.basis.dim)
        for row, psi in zip(out.amps, states):
            one = fs.dgamma_apply(x, psi).amps
            assert np.abs(row - one).max() <= 1e-14 * np.abs(one).max()

    def test_result_survives_later_lifts(self, space):
        rng = np.random.default_rng(20)
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        first = fs.dgamma_apply(x, a)
        kept = first.amps.copy()
        paired = two_body_apply(fold_oracle(np.kron(x, x.T), 3), a)
        kept_pair = paired.amps.copy()
        fs.dgamma_apply(x.T, b)
        two_body_apply(fold_oracle(np.kron(x.T, x), 3), b)
        pair_apply(x, x.T, b)
        assert np.array_equal(first.amps, kept)
        assert np.array_equal(paired.amps, kept_pair)

    def test_pickled_space_keeps_its_scratch_views(self, space):
        rng = np.random.default_rng(22)
        psi = fs.random_fock(space, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        copied = pickle.loads(pickle.dumps(space))
        moved = fs.FockState(psi.amps.copy(), copied)
        assert np.array_equal(fs.dgamma_apply(x, moved).amps, fs.dgamma_apply(x, psi).amps)
        kernel = fold_oracle(np.kron(x, x.T), 3)
        assert np.array_equal(two_body_apply(kernel, moved).amps,
                              two_body_apply(kernel, psi).amps)

    def test_non_contiguous_input(self, space):
        rng = np.random.default_rng(21)
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        columns = np.stack([a.amps, b.amps], axis=1)
        view = fs.FockState(columns[:, 1], space)
        assert not view.amps.flags.c_contiguous
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = fs.dgamma_apply(x, view)
        kept = out.amps.copy()
        assert np.array_equal(out.amps, fs.dgamma_apply(x, b).amps)
        fs.dgamma_apply(x, fs.FockState(columns[:, 0], space))
        assert np.array_equal(out.amps, kept)
        assert np.array_equal(columns[:, 1], b.amps)


class TestPairApply:
    def test_identity_pair_counts_ordered_pairs(self, space):
        psi = fs.random_fock(space, np.random.default_rng(3))
        out = pair_apply(np.eye(3), np.eye(3), psi)
        assert np.allclose(out.amps, 3 * 2 * psi.amps)

    def test_single_particle_has_no_pairs(self):
        single = fs.FockSpace(fs.enumerate_basis(3, 1), CELL)
        psi = fs.random_fock(single, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3))
        out = pair_apply(x, x, psi)
        assert np.abs(out.amps).max() <= 1e-14

    @pytest.mark.parametrize("n", [0, 1])
    def test_two_body_primitive_vanishes_below_two_particles(self, n):
        small = fs.FockSpace(fs.enumerate_basis(3, n), CELL)
        psi = fs.random_fock(small, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        kernel = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        out = two_body_apply(fold_oracle(kernel, 3), psi)
        assert out.amps.shape == psi.amps.shape
        assert np.all(out.amps == 0)

    def test_matches_tensor_double_loop(self, space):
        rng = np.random.default_rng(6)
        psi = ts.random_symmetric(3, 3, CELL, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expect = np.zeros_like(psi.amps)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expect += ts.apply_slots(x, (i,), ts.apply_slots(y, (j,), psi)).amps
        via_fock = fs.embed(pair_apply(x, y, fs.extract(psi, space)))
        assert np.abs(via_fock.amps - expect).max() <= 1e-12

    def test_pair_identity_against_composition(self, space):
        rng = np.random.default_rng(7)
        psi = fs.random_fock(space, rng)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        composed = fs.dgamma_apply(x, fs.dgamma_apply(y, psi))
        recomposed = pair_apply(x, y, psi) + fs.dgamma_apply(x @ y, psi)
        assert (composed - recomposed).norm() <= 1e-11


def brute_force_annihilators(m, n):
    """Dense a_s from the n- to the (n-1)-particle basis, by dict lookup."""
    upper, lower = brute_force_basis(m, n), brute_force_basis(m, n - 1)
    low_index = {row: i for i, row in enumerate(lower)}
    mats = np.zeros((m, len(lower), len(upper)))
    for t, row in enumerate(upper):
        for s in range(m):
            if row[s] > 0:
                lowered = row[:s] + (row[s] - 1,) + row[s + 1:]
                mats[s, low_index[lowered], t] = math.sqrt(row[s])
    return mats


class TestPairChannels:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (4, 5), (9, 3)])
    def test_folded_kernel_matches_ordered_sum(self, m, n):
        """sum K[(r', r), (s', s)] a_r'^+ a_r^+ a_s' a_s from dense ladder
        matrices, for a kernel with no symmetry under either pair swap."""
        rng = np.random.default_rng(40 + m)
        kernel = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
        space = fs.FockSpace(fs.enumerate_basis(m, n), CELL)
        psi = fs.random_fock(space, rng)
        top, below = brute_force_annihilators(m, n), brute_force_annihilators(m, n - 1)
        pairs = np.stack([below[s2] @ top[s] @ psi.amps for s2 in range(m) for s in range(m)])
        mixed = kernel @ pairs  # [(r', r), v]
        expect = sum(top[r2].T @ below[r].T @ mixed[r2 * m + r]
                     for r2 in range(m) for r in range(m))
        out = two_body_apply(fold_oracle(kernel, m), psi)
        assert np.abs(out.amps - expect).max() <= 1e-12

    def test_row_blocks_match_one_product(self, monkeypatch):
        space = fs.FockSpace(fs.enumerate_basis(9, 4), CELL)
        rng = np.random.default_rng(46)
        psi = fs.random_fock(space, rng)
        kernel = fold_oracle(rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81)), 9)
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        monkeypatch.setattr(fs, "SERIAL_PRODUCT", 10**9)
        whole = two_body_apply(kernel, psi), fs.dgamma_apply(x, psi)
        monkeypatch.setattr(fs, "SERIAL_PRODUCT", 1)  # the smallest blocks: 2 x 2
        blocked = two_body_apply(kernel, psi), fs.dgamma_apply(x, psi)
        for one, split in zip(whole, blocked):
            assert np.abs(split.amps - one.amps).max() <= 1e-13 * np.abs(one.amps).max()

    @pytest.mark.parametrize("n", [4, 6])
    def test_products_stay_below_serial_bound(self, n, monkeypatch):
        """Every product the applies run is a matrix-matrix product (two rows
        and two columns at least) of at most SERIAL_PRODUCT multiply-adds."""
        space = fs.FockSpace(fs.enumerate_basis(9, n), CELL)
        rng = np.random.default_rng(47)
        psi = fs.random_fock(space, rng)
        kernel = fold_oracle(rng.standard_normal((81, 81)), 9)
        shapes, matmul = [], np.matmul

        def recorded(a, b, out):
            shapes.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        two_body_apply(kernel, psi)
        fs.dgamma_apply(np.eye(9), psi)
        assert len(shapes) > 2
        for rows, inner_dim, cols in shapes:
            assert rows >= 2 and cols >= 2
            assert rows * inner_dim * cols <= fs.SERIAL_PRODUCT


def ordered_kernel_oracle(terms, scale=1.0):
    """sum over terms of scale * weight * sum_{r, q} B[rho', q] A[rho, r] k[r, q] D[q, s'] C[r, s],
    laid out as K[(rho', rho), (s', s)]."""
    m = np.asarray(terms[0][1]).shape[0]
    kern = np.zeros((m, m, m, m), dtype=complex)
    for weight, k, a, c, b, d in terms:
        kern += scale * weight * np.einsum("Pq,pr,rq,qS,rs->PpSs", b, a, k, d, c)
    return kern.reshape(m * m, m * m)


def fold_oracle(kernel, m):
    """Pair-channel form by direct sums: channels s <= s' in row-major order,
    each entry the sum over both orderings of both pairs, 1/2 per diagonal pair."""
    k4 = kernel.reshape(m, m, m, m)
    channels = list(itertools.combinations_with_replacement(range(m), 2))
    out = np.zeros((len(channels), len(channels)), dtype=complex)
    for i, (a, a2) in enumerate(channels):
        for j, (b, b2) in enumerate(channels):
            total = sum(k4[r2, r, s2, s] for r2, r in ((a, a2), (a2, a)) for s2, s in ((b, b2), (b2, b)))
            out[i, j] = total * (0.5 if a == a2 else 1.0) * (0.5 if b == b2 else 1.0)
    return out


def kernel_inputs(m, rng, stages):
    """A stack of condensates with random phases and norms from 1.0 to 1.5,
    real vbar and mu, and a stand-in model with a random symmetric pair
    table: everything the closed-form kernel build reads."""
    w = rng.standard_normal((m, m))
    model = SimpleNamespace(pair=w + w.T, cell=CELL)
    phi = rng.standard_normal((stages, m)) + 1j * rng.standard_normal((stages, m))
    phi *= (np.linspace(1.0, 1.5, stages) / np.sqrt(CELL * (np.abs(phi) ** 2).sum(axis=1)))[:, None]
    return Condensate(phi, np.zeros(stages), rng.standard_normal((stages, m)), rng.standard_normal(stages)), model


def one_stage(cond, i):
    return Condensate(cond.phi[i], float(cond.t[i]), cond.vbar[i], float(cond.mu[i]))


def assert_matches_oracle(kernels, cond, model, scale):
    """Each stage's (3, P, P) kernels against the folded ordered kernels of
    ``hamiltonians._pair_terms`` at that stage, to 1e-12 relative to the
    size of a term, |scale| max|k| (1 + max|u|^2)^2, which bounds the entries
    of p = u u^H and q; a kernel can vanish (q = 0 at M = 1), so its own
    size is no reference."""
    m = cond.phi.shape[-1]
    assert len(kernels) == len(cond.phi)
    for i, built in enumerate(kernels):
        stage = one_stage(cond, i)
        size = abs(scale) * (1.0 + model.cell * np.abs(stage.phi).max() ** 2) ** 2
        for got, terms in zip(built, hamiltonians._pair_terms(stage, model), strict=True):
            expect = fold_oracle(ordered_kernel_oracle(terms, scale), m)
            assert got.shape == (m * (m + 1) // 2,) * 2
            assert np.abs(got - expect).max() <= 1e-12 * size * np.abs(terms[0][1]).max()


def tabulated_model(dimension, size, profile="tabulated"):
    """An even tabulated pair table and a tabulated potential that changes in time."""
    rng = np.random.default_rng(size + dimension)
    raw = rng.random((size,) * dimension)
    samples = raw + raw[np.ix_(*[(-np.arange(size)) % size] * dimension)]
    table = 3.0 * rng.random((2, size**dimension))
    return build_model(validate_config({
        "dimension": dimension, "sites_per_dim": size, "torus_length": float(size), "particles": 2,
        "interaction_profile": profile,
        "interaction_samples": tuple(samples.ravel()) if profile == "tabulated" else None,
        "potential_kind": "tabulated", "potential_table": ((0.0, 0.1), tuple(map(tuple, table))),
        "dt": 0.01, "t_final": 0.1}))


class TestKernelBuild:
    """The closed-form pair-channel kernels of Htilde, C and Q
    (``hamiltonians._ladder_kernels``) against the folded ordered oracle."""

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "copies"])
    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    def test_matches_ordered_formula(self, m, shared):
        # shared: the stages come from one stacked build; copies: each is built alone
        cond, model = kernel_inputs(m, np.random.default_rng(60 + m), 3)
        if shared:
            kernels = hamiltonians._ladder_kernels(cond, model, 3)
        else:
            kernels = [hamiltonians._ladder_kernels(one_stage(cond, i), model, 3) for i in range(3)]
        assert_matches_oracle(kernels, cond, model, 1.0)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    def test_reduced_build_is_the_leading_kernels(self, m, count):
        # a build of the first count kernels is the same arithmetic, stacked and alone
        cond, model = kernel_inputs(m, np.random.default_rng(80 + m), 3)
        full, reduced = (hamiltonians._ladder_kernels(cond, model, k) for k in (3, count))
        assert reduced.shape == (3, count) + full.shape[2:]
        assert np.array_equal(reduced, full[:, :count])
        for i in range(3):
            alone = hamiltonians._ladder_kernels(one_stage(cond, i), model, count)
            assert np.array_equal(alone, hamiltonians._ladder_kernels(one_stage(cond, i), model, 3)[:count])

    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    def test_plan_is_read_only(self, m):
        plan = hamiltonians._plan(m)
        assert hamiltonians._plan(m) is plan
        for arr in plan:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 0

    @pytest.mark.parametrize("size,dimension,profile", [(2, 1, "tabulated"), (4, 1, "tabulated"),
                                                        (3, 2, "tabulated"), (4, 1, "zero")])
    def test_rk4_stage_condensates_match_the_ordered_formula(self, size, dimension, profile):
        # the unnormalised stage condensates of RK4 steps, at N = 2, through stage_pieces
        model = tabulated_model(dimension, size, profile)
        traj = hartree_evolve(default_phi0(model), 0.0, 0.05, model)
        cond = condensate_at(traj.stage_phis[:8], traj.stage_times[:8], model)
        assert abs(one_body_norm(cond.phi[-1], model.cell) - 1.0) > 1e-10  # not normalised
        pieces = hamiltonians.stage_pieces(cond, model)
        assert_matches_oracle([piece.kernels for piece in pieces], cond, model, 1.0)
        if profile == "zero":
            assert not any(np.any(kernel) for piece in pieces for kernel in piece.kernels)

    @staticmethod
    def recorded_build(monkeypatch, stages, count):
        """The ``fockstate._product`` calls and the matrix shapes of one M = 9
        build of ``count`` kernels."""
        cond, model = kernel_inputs(9, np.random.default_rng(71), stages)
        products, shapes, product, matmul = [], [], fs._product, np.matmul

        def counted(a, b, out):
            products.append(a.shape)
            return product(a, b, out)

        def recorded(a, b, out):
            shapes.append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return matmul(a, b, out=out)

        monkeypatch.setattr(fs, "_product", counted)
        monkeypatch.setattr(np, "matmul", recorded)
        hamiltonians._ladder_kernels(cond if stages > 1 else one_stage(cond, 0), model, count)
        return products, shapes

    def test_products_stay_below_serial_bound(self, monkeypatch):
        # two products for the three kernels of a build, R^T G^T and the
        # factors', each matrix in serial blocks
        products, shapes = self.recorded_build(monkeypatch, 1, 3)
        assert products == [(3, 10, 10), (3, 45, 20)]
        assert len(shapes) >= 1
        for rows, inner_dim, cols in shapes:
            assert rows >= 2 and cols >= 2
            assert rows * inner_dim * cols <= fs.SERIAL_PRODUCT

    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    def test_stage_axis_builds_each_stage(self, m):
        cond, model = kernel_inputs(m, np.random.default_rng(90 + m), 5)
        built = hamiltonians._ladder_kernels(cond, model, 3)
        assert built.shape == (5, 3) + (m * (m + 1) // 2,) * 2
        for i in range(5):
            alone = hamiltonians._ladder_kernels(one_stage(cond, i), model, 3)
            assert np.abs(built[i] - alone).max() <= 1e-13 * np.abs(alone).max()

    def test_stage_axis_products_stay_below_serial_bound(self, monkeypatch):
        """Two stacked products, R^T G^T and the factors', for a whole build
        of one, two or three kernels, at its batch; the bound holds for each
        matrix of them."""
        for count in (1, 2, 3):
            stages = hamiltonians._stage_batch(9, count)
            assert stages > 1
            with monkeypatch.context() as patch:
                products, shapes = self.recorded_build(patch, stages, count)
            assert products == [(stages, count, 10, 10), (stages, count, 45, 20)]
            assert len(shapes) >= 1
            for rows, inner_dim, cols in shapes:
                assert rows >= 2 and cols >= 2
                assert rows * inner_dim * cols <= fs.SERIAL_PRODUCT


class TestKernelShapes:
    def test_two_body_apply_needs_the_spaces_pair_channels(self, space):
        rng = np.random.default_rng(72)
        psi = fs.random_fock(space, rng)
        folded_m4 = fold_oracle(rng.standard_normal((16, 16)), 4)
        with pytest.raises(ValueError, match="M=3 pair channels"):
            two_body_apply(folded_m4, psi)
        with pytest.raises(ValueError, match="M=3 pair channels"):
            two_body_apply(rng.standard_normal((9, 9)), psi)  # ordered, not folded
        out = two_body_apply(fold_oracle(rng.standard_normal((9, 9)), 3), psi)
        assert out.amps.shape == psi.amps.shape

    def test_two_body_sums_match_separate_applies(self, space):
        rng = np.random.default_rng(73)
        states = [fs.random_fock(space, rng) for _ in range(3)]
        kernels = np.stack([fold_oracle(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)), 3)
                            for _ in range(3)])
        terms = [[(0, 0)], [(0, 1), (1, 0)], [(2, 2), (1, 1), (0, 0)], []]
        out = fs.two_body_sums(block(states), kernels, terms)
        assert out.amps.shape == (len(terms), space.basis.dim)
        for got, entries in zip(out.amps, terms):
            expect = np.zeros_like(got)
            for op, j in entries:
                expect += two_body_apply(kernels[op], states[j]).amps
            assert np.abs(got - expect).max() <= 1e-13 * max(1.0, np.abs(expect).max())


def pair_diagonal(space, pair):
    """The pair diagonal held in the space's generator record, after a
    ``generator_table`` call on a new zero h0 at coupling 1."""
    fs.generator_table(space, np.zeros((space.sites,) * 2), pair, 1.0)
    return space._generator[6]


class TestPairDiagonal:
    """The pair diagonal, kept in the generator record of the space."""

    def test_cached_and_equal_to_formula(self, space):
        rng = np.random.default_rng(32)
        pair = rng.standard_normal((3, 3))
        pair = pair + pair.T
        pair.flags.writeable = False
        first = pair_diagonal(space, pair)
        # a new h0 rewrites slot 0 but keeps the pair diagonal of the same
        # read-only table
        assert pair_diagonal(space, pair) is first
        occ = space.basis.occupations.astype(float)
        expect = 0.5 * (np.einsum("bm,mn,bn->b", occ, pair, occ) - occ @ np.diag(pair))
        assert np.array_equal(first, expect)
        assert np.array_equal(space._generator[2][0], expect)

    def test_new_table_replaces_cache(self, space):
        rng = np.random.default_rng(33)
        one, two = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        first = pair_diagonal(space, one)
        second = pair_diagonal(space, two)
        assert second is not first
        assert not np.array_equal(first, second)
        assert np.array_equal(pair_diagonal(space, one), first)


class TestEmbedExtract:
    def test_condensed_mode_is_delta_product(self, space):
        unit = fs.FockState(np.zeros(space.basis.dim, dtype=complex), space)
        unit.amps[space.basis.index_of((3, 0, 0))] = 1.0
        psi = fs.embed(unit)
        expect = np.zeros((3, 3, 3), dtype=complex)
        expect[0, 0, 0] = CELL ** (-1.5)
        assert np.allclose(psi.amps, expect)

    def test_roundtrip_identity(self, space):
        psi = fs.random_fock(space, np.random.default_rng(8))
        back = fs.extract(fs.embed(psi), space)
        assert np.abs(back.amps - psi.amps).max() <= 1e-13

    def test_embed_is_isometry(self, space):
        psi = fs.random_fock(space, np.random.default_rng(9))
        assert abs(fs.embed(psi).norm() - psi.norm()) <= 1e-12

    def test_inner_products_preserved(self, space):
        rng = np.random.default_rng(10)
        a, b = fs.random_fock(space, rng), fs.random_fock(space, rng)
        assert a.inner(b) == pytest.approx(fs.embed(a).inner(fs.embed(b)), abs=1e-12)

    def test_embed_extract_is_symmetrize(self, space):
        rng = np.random.default_rng(11)
        raw = ts.TensorState(
            rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)), CELL
        )
        sym = ts.symmetrize(raw)
        projected = fs.embed(fs.extract(sym, space))
        assert (projected - sym).norm() <= 1e-12

    def test_extract_rejects_asymmetric(self, space):
        amps = np.zeros((3, 3, 3), dtype=complex)
        amps[0, 1, 2] = 1.0
        with pytest.raises(ValueError):
            fs.extract(ts.TensorState(amps, CELL), space)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 3)], ids=["other-N", "other-M"])
    def test_extract_rejects_another_grid(self, space, m, n):
        psi = ts.random_symmetric(m, n, CELL, np.random.default_rng(12))
        with pytest.raises(ValueError, match="does not match the occupation basis"):
            fs.extract(psi, space)


class TestProductFock:
    def test_matches_tensor_product_state(self, space):
        rng = np.random.default_rng(12)
        phi = random_phi(3, rng)
        via_fock = fs.embed(fs.product_fock(phi, space))
        direct = ts.product_state(phi, 3, CELL)
        assert (via_fock - direct).norm() <= 1e-12

    def test_unit_norm(self, space):
        rng = np.random.default_rng(13)
        phi = random_phi(3, rng)
        assert fs.product_fock(phi, space).norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,n", [(4, 16), (9, 4)])
    def test_multinomials_match_the_per_row_formula(self, m, n):
        # one evaluation per distinct multiset gives every row's bits
        occ = fs.enumerate_basis(m, n).occupations
        per_row = np.array([math.sqrt(math.factorial(int(sum(row)))
                                      / math.prod(math.factorial(int(k)) for k in row)) for row in occ])
        assert np.array_equal(fs._sqrt_multinomials(occ), per_row)
