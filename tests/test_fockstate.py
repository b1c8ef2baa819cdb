import itertools
import math
import pickle

import numpy as np
import pytest

from bosonlab import fockstate as fs
from bosonlab import tensorstate as ts
from bosonlab.errors import ConfigError

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
    one-row case of ``fs.two_body_sums``."""
    out = fs.two_body_sums(block([state]), [[(np.asarray(kernel), 0)]])
    return fs.FockState(out.amps[0], state.space)


def pair_apply(x, y, state):
    """sum_{i != j} X_i Y_j; ordered pairs counted."""
    return two_body_apply(fs.fold_kernel(np.kron(y, x)), state)


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
            fs.enumerate_basis(30, 30, ceiling=1000)


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
    create = np.full((len(moves), len(upper)), len(moves) * len(lower), dtype=np.int64)
    for t, row in enumerate(upper):
        for p, move in enumerate(moves):
            lowered = tuple(a - b for a, b in zip(row, move))
            if min(lowered) >= 0:
                create[p, t] = p * len(lower) + low_index[lowered]
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
        lhs = fs.inner(b, fs.dgamma_apply(herm, a))
        rhs = fs.inner(fs.dgamma_apply(herm, b), a)
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
        paired = two_body_apply(fs.fold_kernel(np.kron(x, x.T)), a)
        kept_pair = paired.amps.copy()
        fs.dgamma_apply(x.T, b)
        two_body_apply(fs.fold_kernel(np.kron(x.T, x)), b)
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
        kernel = fs.fold_kernel(np.kron(x, x.T))
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
        out = two_body_apply(fs.fold_kernel(kernel), psi)
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
                expect += ts.apply_factor(x, i, ts.apply_factor(y, j, psi)).amps
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
        out = two_body_apply(fs.fold_kernel(kernel), psi)
        assert np.abs(out.amps - expect).max() <= 1e-12

    def test_row_blocks_match_one_product(self, monkeypatch):
        space = fs.FockSpace(fs.enumerate_basis(9, 4), CELL)
        rng = np.random.default_rng(46)
        psi = fs.random_fock(space, rng)
        kernel = fs.fold_kernel(rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81)))
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
        kernel = fs.fold_kernel(rng.standard_normal((81, 81)))
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


def random_pair_terms(m, rng, shared):
    """Three operators of random non-Hermitian terms.  With ``shared`` the
    terms reuse two factor objects x, y and one kernel object, as
    ``hamiltonians._pair_terms`` reuses p, q and w; otherwise every factor
    is its own copy, so that no two terms share an object."""
    def table():
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

    x, y, w = table(), table(), rng.standard_normal((m, m))
    z = rng.standard_normal((m, m))
    own = (lambda v: v) if shared else (lambda v: v.copy())
    return (
        ((1.0, own(w), own(x), own(y), own(y), own(x)), (0.5, own(w), own(x), own(y), own(x), own(y)),
         (0.5, own(w), own(y), own(x), own(y), own(x))),
        ((1.0, own(z), own(y), own(y), own(y), own(x)), (-0.7, own(z), own(y), own(y), own(x), own(y))),
        ((0.5 + 0.25j, own(w), own(y), own(y), own(y), own(y)), (0.3, own(z), table(), table(), table(), table())),
    )


class TestKernelBuild:
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "copies"])
    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    def test_matches_ordered_formula(self, m, shared):
        rng = np.random.default_rng(60 + m)
        operators = random_pair_terms(m, rng, shared)
        built = fs.pair_kernels(operators, 0.3)
        assert len(built) == len(operators)
        for kernel, terms in zip(built, operators):
            expect = fold_oracle(ordered_kernel_oracle(terms, 0.3), m)
            assert kernel.shape == (m * (m + 1) // 2,) * 2
            assert np.abs(kernel - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())

    def test_products_stay_below_serial_bound(self, monkeypatch):
        rng = np.random.default_rng(71)
        operators = random_pair_terms(9, rng, shared=True)
        shapes, matmul = [], np.matmul

        def recorded(a, b, out):
            shapes.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        fs.pair_kernels(operators)
        assert len(shapes) > len(operators)
        for rows, inner_dim, cols in shapes:
            assert rows >= 2 and cols >= 2
            assert rows * inner_dim * cols <= fs.SERIAL_PRODUCT

    @staticmethod
    def staged_terms(m, rng, stages):
        """Three operators over factors x, y and kernel z with a leading
        stage axis and one kernel w shared by every stage; C's two terms
        have equal weights, so their left factors are summed."""
        def table(*lead):
            return rng.standard_normal((*lead, m, m)) + 1j * rng.standard_normal((*lead, m, m))

        x, y, z = table(stages), table(stages), table(stages).real
        w = rng.standard_normal((m, m))

        def operators(x, y, z):
            return (
                ((1.0, w, x, y, y, x), (0.5, w, x, y, x, y), (0.5, w, y, x, y, x)),
                ((1.0, z, y, y, y, x), (1.0, z, y, y, x, y)),
                ((0.5 + 0.25j, w, y, y, y, y), (0.3, z, x, y, y, x)),
            )

        return operators(x, y, z), [operators(x[s], y[s], z[s]) for s in range(stages)]

    @pytest.mark.parametrize("m", [1, 2, 4, 9])
    def test_stage_axis_builds_each_stage(self, m):
        rng = np.random.default_rng(90 + m)
        staged, alone = self.staged_terms(m, rng, 3)
        built = fs.pair_kernels(staged, 0.3)
        for s, operators in enumerate(alone):
            for kernels, terms in zip(built, operators):
                assert kernels.shape == (3,) + (m * (m + 1) // 2,) * 2
                expect = fold_oracle(ordered_kernel_oracle(terms, 0.3), m)
                assert np.abs(kernels[s] - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())

    def test_stage_axis_products_stay_below_serial_bound(self, monkeypatch):
        """The bound holds for each matrix of a stacked product."""
        rng = np.random.default_rng(72)
        staged, _ = self.staged_terms(9, rng, 2)
        shapes, matmul = [], np.matmul

        def recorded(a, b, out):
            shapes.append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        fs.pair_kernels(staged)
        assert len(shapes) > len(staged)
        for rows, inner_dim, cols in shapes:
            assert rows >= 2 and cols >= 2
            assert rows * inner_dim * cols <= fs.SERIAL_PRODUCT


class TestKernelShapes:
    @pytest.mark.parametrize("shape", [(10, 10), (6, 6), (9, 8), (0, 0), (3, 3, 3)])
    def test_fold_kernel_needs_an_ordered_square_of_a_square(self, shape):
        # (10, 10) and (6, 6) are already folded kernels of M = 4 and M = 3
        with pytest.raises(ValueError, match=r"\(M\^2, M\^2\)"):
            fs.fold_kernel(np.ones(shape))

    def test_two_body_apply_needs_the_spaces_pair_channels(self, space):
        rng = np.random.default_rng(72)
        psi = fs.random_fock(space, rng)
        folded_m4 = fs.fold_kernel(rng.standard_normal((16, 16)))
        with pytest.raises(ValueError, match="M=3 pair channels"):
            two_body_apply(folded_m4, psi)
        with pytest.raises(ValueError, match="M=3 pair channels"):
            two_body_apply(rng.standard_normal((9, 9)), psi)  # ordered, not folded
        out = two_body_apply(fs.fold_kernel(rng.standard_normal((9, 9))), psi)
        assert out.amps.shape == psi.amps.shape

    def test_two_body_sums_match_separate_applies(self, space):
        rng = np.random.default_rng(73)
        states = [fs.random_fock(space, rng) for _ in range(3)]
        kernels = [fs.fold_kernel(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
                   for _ in range(3)]
        terms = [[(kernels[0], 0)], [(kernels[0], 1), (kernels[1], 0)],
                 [(kernels[2], 2), (kernels[1], 1), (kernels[0], 0)], []]
        out = fs.two_body_sums(block(states), terms)
        assert out.amps.shape == (len(terms), space.basis.dim)
        for got, entries in zip(out.amps, terms):
            expect = np.zeros_like(got)
            for kernel, j in entries:
                expect += two_body_apply(kernel, states[j]).amps
            assert np.abs(got - expect).max() <= 1e-13 * max(1.0, np.abs(expect).max())


class TestPairDiagonal:
    def test_cached_read_only_and_equal_to_formula(self, space):
        rng = np.random.default_rng(32)
        pair = rng.standard_normal((3, 3))
        pair = pair + pair.T
        first = fs.pair_diagonal(space, pair)
        assert fs.pair_diagonal(space, pair) is first
        assert not first.flags.writeable
        occ = space.basis.occupations.astype(float)
        expect = 0.5 * (np.einsum("bm,mn,bn->b", occ, pair, occ) - occ @ np.diag(pair))
        assert np.array_equal(first, expect)

    def test_new_table_replaces_cache(self, space):
        rng = np.random.default_rng(33)
        one, two = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        first = fs.pair_diagonal(space, one)
        second = fs.pair_diagonal(space, two)
        assert second is not first
        assert not np.array_equal(first, second)
        assert np.array_equal(fs.pair_diagonal(space, one), first)


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
        assert fs.inner(a, b) == pytest.approx(ts.inner(fs.embed(a), fs.embed(b)), abs=1e-12)

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
