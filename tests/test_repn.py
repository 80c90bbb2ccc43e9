"""Exact matrix realizations: spectra, scalar sums, conjugation, pairs."""

import dataclasses
from fractions import Fraction
from itertools import product

import pytest

from qonsager.adjoint import FORWARD, INVERSE, ImageCache, apply_bad, apply_badprod, truncated_sum
from qonsager.errors import (
    DegenerateEigenvalues,
    DimensionMismatch,
    InvalidQ,
    InvariantViolation,
    NotDiagonalizable,
    ParseError,
)
from qonsager.matrices import ExactMatrix
from qonsager.repn import (
    TDPair,
    _dg_defect,
    _idempotents,
    _in_eigenbasis,
    _spectral_eigenlines,
    check_dg_spectral,
    higher_dg_matrix,
    import_td_pair,
    matrix_from_json,
    matrix_lusztig,
    matrix_to_json,
    random_a1_matrix,
    scalar_S_ratio,
    search_td_pair,
    sigma_prefactor,
    spectral_data,
    td_pair_d1,
    td_pair_from_json,
    td_pair_to_json,
    theta_sequence,
    twist_module,
    validate_td_pair,
    verify_conjugation,
)


class TestTheta:
    def test_d2_closed_form(self):
        a, q0 = Fraction(3), Fraction(2)
        assert theta_sequence(2, a, q0) == [
            a * q0 ** 2 + 1 / (a * q0 ** 2),
            a + 1 / a,
            a / q0 ** 2 + q0 ** 2 / a,
        ]

    def test_forbidden_q(self):
        for bad in (0, 1, -1):
            with pytest.raises(InvalidQ):
                theta_sequence(2, 3, bad)

    def test_collision_rejected(self):
        with pytest.raises(DegenerateEigenvalues):
            theta_sequence(1, 1, 2)  # a = 1 collapses the endpoints
        with pytest.raises(DegenerateEigenvalues):
            theta_sequence(2, 2, 2)  # a = q0 collides interior entries


class TestSpectralData:
    def test_twist_scalars(self):
        sd = spectral_data(3, 3, 2)
        assert sd.t[0] == 1
        assert sd.t[3] == Fraction(3) ** 6
        for i in range(4):
            assert sd.t[i] == Fraction(3) ** (2 * i) * Fraction(2) ** (2 * i * (3 - i))

    def test_idempotent_invariants(self):
        sd = spectral_data(2, 5, Fraction(3, 2))
        n = sd.d + 1
        ident = ExactMatrix.identity(n)
        total = ExactMatrix.zeros(n)
        for E in sd.E:
            total = total + E
        assert total == ident
        for i in range(n):
            for j in range(n):
                expected = sd.E[i] if i == j else ExactMatrix.zeros(n)
                assert sd.E[i] * sd.E[j] == expected
        assert sd.Psi * sd.PsiInv == ident

    @pytest.mark.parametrize("shift", [0, 1])
    def test_matrix_off_the_eigenvalue_array_is_rejected(self, shift):
        # shift 0: a Jordan block at theta_0, shift 1: theta_0 moved off theta
        theta = theta_sequence(2, 3, 2)
        rows = [[theta[0], 1 - shift, 0], [0, theta[0] + shift, 0], [0, 0, theta[2]]]
        message = "^matrix does not act by its eigenvalue array$"
        with pytest.raises(NotDiagonalizable, match=message):
            spectral_data(2, 3, 2, A=ExactMatrix(rows))

    def test_matrix_missing_an_eigenvalue_is_rejected(self):
        # diag(theta_0, theta_0, theta_1, theta_2) is annihilated by the
        # product of all A - theta_i, but it lacks theta_3, so E_3 = 0
        theta = theta_sequence(3, 3, 2)
        A = ExactMatrix.diagonal([theta[0], theta[0], theta[1], theta[2]])
        message = "^matrix does not act by its eigenvalue array$"
        with pytest.raises(NotDiagonalizable, match=message):
            spectral_data(3, 3, 2, A=A)


@pytest.fixture(scope="module")
def sd():
    return spectral_data(4, Fraction(5, 2), Fraction(3, 2))


class TestScalarSums:
    def test_ratio_contract(self, sd):
        for i in range(5):
            for j in range(5):
                assert scalar_S_ratio(i, j, sd, FORWARD) == sd.t[j] / sd.t[i]
                assert scalar_S_ratio(i, j, sd, INVERSE) == sd.t[i] / sd.t[j]

    def test_diagonal_is_one(self, sd):
        assert scalar_S_ratio(2, 2, sd, FORWARD) == 1

    def test_adjacent_closed_forms(self, sd):
        d, a, q0 = sd.d, sd.a, sd.q0
        for i in range(1, d + 1):
            assert scalar_S_ratio(i, i - 1, sd, FORWARD) == q0 ** (4 * i - 2 * d - 2) / a ** 2
        for j in range(1, d + 1):
            assert scalar_S_ratio(j - 1, j, sd, FORWARD) == q0 ** (2 * d + 2 - 4 * j) * a ** 2

    def test_forward_inverse_product_is_one(self, sd):
        for i in range(5):
            for j in range(5):
                assert (
                    scalar_S_ratio(i, j, sd, FORWARD) * scalar_S_ratio(i, j, sd, INVERSE)
                    == 1
                )

    def test_prefactor_vanishes_beyond_distance(self, sd):
        for i in range(5):
            for j in range(5):
                for n in range(abs(i - j) + 1, sd.d + 3):
                    assert not sigma_prefactor(n, i, j, sd)

    def test_d6_eigenline_checks_share_their_products(self, monkeypatch):
        """The 49 checks of `repn ssum --d 6` (forward, inverse and tail) run
        one truncated sum per eigenline cache: the inverse sum and the tail
        reuse the forward sum's balanced products and their sides, so the
        checks make at most 1,298 2x2 products (2,016 when every shift map
        rebuilt its last step's products)."""
        sd6 = spectral_data(6, Fraction(3, 2), Fraction(5, 3))
        count = 0
        mul = ExactMatrix.__mul__

        def spy(M, other):
            nonlocal count
            if isinstance(other, ExactMatrix) and other.dimension == 2:
                count += 1
            return mul(M, other)

        monkeypatch.setattr(ExactMatrix, "__mul__", spy)
        for i, j in product(range(7), repeat=2):
            assert scalar_S_ratio(i, j, sd6, FORWARD) == sd6.t[j] / sd6.t[i]
            assert scalar_S_ratio(i, j, sd6, INVERSE) == sd6.t[i] / sd6.t[j]
            assert all(not sigma_prefactor(n, i, j, sd6) for n in range(abs(i - j) + 1, 8))
        assert count <= 1298

    def test_prefactor_of_order_zero_is_one(self, sd):
        """The balanced product of order 0 is the identity."""
        for i, j in product(range(5), repeat=2):
            assert sigma_prefactor(0, i, j, sd) == 1

    def test_sigma_vanishing_characterization(self):
        """The balanced map of twist r >= 1 kills the (i, j) eigenline, the
        unit e_01 under diag(theta_i, theta_j), exactly when |i - j| = r."""
        for a, q0 in ((Fraction(3), Fraction(2)), (Fraction(5, 2), Fraction(3, 2))):
            sd = spectral_data(4, a, q0)
            for r in range(1, 5):
                for i in range(5):
                    for j in range(5):
                        A = ExactMatrix.diagonal([sd.theta[i], sd.theta[j]])
                        vanished = apply_bad(r, A, E01, sd.mode).is_zero()
                        assert vanished == (abs(i - j) == r)


E01 = ExactMatrix([[0, 1], [0, 0]])
ORACLE_AQ = ((Fraction(5, 2), Fraction(3, 2)), (Fraction(-2, 3), Fraction(7, 5)))


def oracle_scalars(d, a, q0, odd=lambda n: 2 * n + 1):
    """sympy's scalars on each eigenline e_ij at (a, q0), for i, j = 0..d:
    {(i, j): (balanced products of order 0..d+2, forward sum, inverse sum)}.

    They are built from the two defining formulas alone and share no code
    with adjoint, matrices or qcoeff.  On e_ij the twist-r primitive
    q^r A X - q^-r X A multiplies by q^r lam - q^-r mu, with
    (lam, mu) = (theta_i, theta_j), and the balanced map of twist n >= 1 is
    [(q^2n - q^-2n)^2 X + twist(n, twist(-n, X))] / [(q^2n - q^-2n)(q^odd(n) - q^-odd(n))],
    odd(n) = 2n + 1; twist 0 is the commutator over q - q^-1.
    """
    sp = pytest.importorskip("sympy")
    q, lam, mu = sp.symbols("q lam mu")
    qn = lambda n: q ** n - q ** -n
    prim = lambda r: q ** r * lam - q ** -r * mu
    bal = [prim(0) / qn(1)] + [
        (qn(2 * n) ** 2 + prim(n) * prim(-n)) / (qn(2 * n) * qn(odd(n)))
        for n in range(1, d + 2)
    ]
    bp = [sp.Integer(1)]
    for b in bal:
        bp.append(bp[-1] * b)
    sums = {e: 1 + sum(bp[n] * prim(e * n) / qn(2 * n) for n in range(1, d + 1))
            for e in (1, -1)}
    a, q0 = sp.Rational(str(a)), sp.Rational(str(q0))
    theta = [a * q0 ** (d - 2 * i) + q0 ** (2 * i - d) / a for i in range(d + 1)]
    out = {}
    for i, j in product(range(d + 1), repeat=2):
        at = {q: q0, lam: theta[i], mu: theta[j]}
        values = [p.xreplace(at) for p in bp + [sums[1], sums[-1]]]
        out[i, j] = [Fraction(int(v.p), int(v.q)) for v in values]
    return out


def oracle_mismatches(d, a, q0, odd=lambda n: 2 * n + 1):
    """Where the engine's eigenline scalars differ from oracle_scalars.

    The oracle's sums are truncated at d; a sum up to |i - j| is the same
    sum because the oracle's balanced products vanish beyond |i - j|.
    """
    sd = spectral_data(d, a, q0)
    bad = []
    for (i, j), values in oracle_scalars(d, a, q0, odd).items():
        *pre, fwd, inv = values
        e = ExactMatrix([[int((r, c) == (i, j)) for c in range(d + 1)] for r in range(d + 1)])
        got = [sigma_prefactor(n, i, j, sd) for n in range(d + 3)]
        got += [scalar_S_ratio(i, j, sd, FORWARD), scalar_S_ratio(i, j, sd, INVERSE)]
        got += [matrix_lusztig(e, sd, FORWARD) == fwd * e,
                matrix_lusztig(e, sd, INVERSE) == inv * e]
        if got != pre + [fwd, inv, True, True]:
            bad.append((i, j))
    return bad


class TestEigenlineOracle:
    """The engine's eigenline scalars, and the full model's action on each
    matrix unit, against sympy's scalars built from the defining formulas."""

    @pytest.mark.parametrize("a,q0", ORACLE_AQ)
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_engine_matches_oracle(self, d, a, q0):
        assert oracle_mismatches(d, a, q0) == []

    @pytest.mark.parametrize("a,q0", ORACLE_AQ)
    def test_oracle_sums_are_the_twist_ratios(self, a, q0):
        """The oracle itself: the forward sum is t_j / t_i, t_i = a^2i q^2i(d-i)."""
        d = 4
        t = [a ** (2 * i) * q0 ** (2 * i * (d - i)) for i in range(d + 1)]
        for (i, j), (*_, fwd, inv) in oracle_scalars(d, a, q0).items():
            assert (fwd, inv) == (t[j] / t[i], t[i] / t[j])

    def test_oracle_catches_a_mutated_balanced_map(self):
        """[2n+1] replaced by [2n] in the oracle's balanced map: every eigenline
        with |i - j| >= 2 then differs from the engine."""
        bad = oracle_mismatches(4, *ORACLE_AQ[0], odd=lambda n: 2 * n)
        assert bad == [(i, j) for i, j in product(range(5), repeat=2) if abs(i - j) >= 2]


class TestMatrixAutomorphism:
    def test_entrywise_scalar_law(self):
        sd = spectral_data(3, 3, 2)
        n = 4
        for i in range(n):
            for j in range(n):
                rows = [[Fraction(0)] * n for _ in range(n)]
                rows[i][j] = Fraction(1)
                e = ExactMatrix(rows)
                assert matrix_lusztig(e, sd, FORWARD) == scalar_S_ratio(i, j, sd, FORWARD) * e

    def test_annihilation_bound_on_matrix_units(self):
        for d in (3, 6):
            sd = spectral_data(d, 3, 2)
            n = d + 1
            for i in range(n):
                for j in range(n):
                    rows = [[Fraction(0)] * n for _ in range(n)]
                    rows[i][j] = Fraction(1)
                    e = ExactMatrix(rows)
                    assert apply_badprod(sd.d + 1, sd.A, e, sd.mode).is_zero()

    def test_diameter_one_unit_scales_by_squared_parameter(self):
        sd = spectral_data(1, 3, 2)
        e01 = ExactMatrix([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
        assert matrix_lusztig(e01, sd, FORWARD) == Fraction(9) * e01
        assert scalar_S_ratio(0, 1, sd, FORWARD) == sd.a ** 2

    def test_idempotents_are_fixed(self):
        sd = spectral_data(3, 3, 2)
        for E in sd.E:
            assert matrix_lusztig(E, sd, FORWARD) == E

    def test_multiplicativity_on_random_matrices(self):
        import random

        sd = spectral_data(2, 3, 2)
        rng = random.Random(7)
        n = 3
        for _ in range(5):
            X = ExactMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
            Y = ExactMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
            assert matrix_lusztig(X * Y, sd, FORWARD) == matrix_lusztig(
                X, sd, FORWARD
            ) * matrix_lusztig(Y, sd, FORWARD)

    def test_polynomials_in_base_are_fixed(self):
        sd = spectral_data(3, 3, 2)
        P = sd.A * sd.A + 5 * sd.A + ExactMatrix.identity(4)
        assert matrix_lusztig(P, sd, FORWARD) == P
        assert matrix_lusztig(sd.Psi, sd, FORWARD) == sd.Psi

    def test_conjugation_record(self):
        sd = spectral_data(3, 3, 2)
        assert verify_conjugation(sd, trials=4, seed=5).status == "pass"


@pytest.fixture(scope="module")
def sd6():
    return spectral_data(6, Fraction(3, 2), Fraction(5, 3))


class TestConjugationTrial:
    """One verify_conjugation trial reads both sums from one image cache."""

    def test_d6_trial_makes_33_products(self, sd6, monkeypatch):
        """5d - 1 products for the forward sum, none more for the inverse
        sum, and two for each of the two conjugations."""
        products = []
        mul = ExactMatrix.__mul__

        def spy(M, other):
            if isinstance(other, ExactMatrix):
                products.append(other)
            return mul(M, other)

        monkeypatch.setattr(ExactMatrix, "__mul__", spy)
        record = verify_conjugation(sd6, trials=1, seed=3)
        monkeypatch.undo()
        assert record.status == "pass"
        assert len(products) == (5 * 6 - 1) + 4

    def test_inverse_sum_after_forward_sum_on_one_cache(self, sd6):
        sd = sd6
        X = ExactMatrix([[(3 * i - 2 * j) % 7 - 3 for j in range(7)] for i in range(7)])
        maps = ImageCache(sd.A, sd.mode)
        fwd = maps.truncated_sum(X, sd.d, FORWARD)
        inv = maps.truncated_sum(X, sd.d, INVERSE)
        assert fwd == truncated_sum(sd.A, X, sd.d, FORWARD, sd.mode)
        assert inv == truncated_sum(sd.A, X, sd.d, INVERSE, sd.mode)
        assert inv != fwd
        assert inv == sd.Psi * X * sd.PsiInv

    def test_swapped_twist_fails_every_trial(self, sd6):
        sd = dataclasses.replace(sd6, Psi=sd6.PsiInv, PsiInv=sd6.Psi)
        record = verify_conjugation(sd, trials=3, seed=3)
        assert record.status == "fail"
        assert record.detail == "3 random matrices; failing trials [0, 1, 2]"

    def test_twist_with_doubled_t1_fails(self, sd6):
        sd = sd6
        t = list(sd.t)
        t[1] *= 2
        Psi = ExactMatrix.combine(zip(t, sd.E))
        PsiInv = ExactMatrix.combine((1 / ti, Ei) for ti, Ei in zip(t, sd.E))
        assert Psi * PsiInv == ExactMatrix.identity(sd.d + 1)
        record = verify_conjugation(dataclasses.replace(sd, t=t, Psi=Psi, PsiInv=PsiInv), 3, 3)
        assert record.status == "fail"
        assert record.detail == "3 random matrices; failing trials [0, 1, 2]"


class TestRandomTridiagonal:
    def test_contract_holds(self):
        sd = spectral_data(4, 3, 2)
        X = random_a1_matrix(sd, seed=3)
        assert apply_badprod(2, sd.A, X, sd.mode).is_zero()

    def test_far_entry_breaks_membership(self):
        sd = spectral_data(3, 3, 2)
        n = 4
        rows = [[Fraction(0)] * n for _ in range(n)]
        rows[0][2] = Fraction(1)
        X = ExactMatrix(rows)
        assert not apply_badprod(2, sd.A, X, sd.mode).is_zero()

    @pytest.mark.parametrize("r,d", [(1, 2), (2, 4), (3, 6)])
    def test_higher_dg_matrix(self, r, d):
        sd = spectral_data(d, 3, 2)
        assert higher_dg_matrix(r, sd, seed=r).status == "pass"


class TestSpectralCriterion:
    def test_d1_pair_passes_both_relations(self):
        rec = check_dg_spectral(td_pair_d1(3, 2, 2))
        assert (rec.status, rec.detail) == ("pass", "both relations, spectral + direct")

    def test_random_tridiagonal_passes_first_relation(self):
        sd = spectral_data(3, 3, 2)
        X = random_a1_matrix(sd, seed=9)
        assert _spectral_eigenlines(sd.E, X, sd.theta, sd.q0) == []
        assert _dg_defect(sd.A, X, sd.q0).is_zero()

    def test_far_entry_fails(self):
        sd = spectral_data(2, 3, 2)
        rows = [[Fraction(0)] * 3 for _ in range(3)]
        rows[0][1] = rows[1][0] = rows[1][2] = rows[2][1] = Fraction(1)
        rows[0][2] = Fraction(1)
        X = ExactMatrix(rows)
        assert _spectral_eigenlines(sd.E, X, sd.theta, sd.q0)
        assert not _dg_defect(sd.A, X, sd.q0).is_zero()

    def test_agrees_with_direct_evaluation(self):
        """No eigenline is found exactly when the first relation's defect is zero."""
        import random

        zeros = []
        for d, q0 in product((2, 3), (2, Fraction(5, 3))):
            sd = spectral_data(d, 3, q0)
            n = d + 1
            rng = random.Random(f"{d}-{q0}")
            # tridiagonal ones plus one entry two off the diagonal
            far = [[Fraction(int(abs(i - j) == 1 or (i, j) == (0, 2))) for j in range(n)]
                   for i in range(n)]
            sparse = [
                ExactMatrix([[Fraction(rng.choice((0, 0, 0, -2, -1, 1, 3))) for _ in range(n)]
                             for _ in range(n)])
                for _ in range(30)
            ]
            for k, M in enumerate([random_a1_matrix(sd, seed) for seed in range(10)]
                                  + [ExactMatrix(far)] + sparse):
                zero = _dg_defect(sd.A, M, sd.q0).is_zero()
                assert (not _spectral_eigenlines(sd.E, M, sd.theta, sd.q0)) == zero
                if k <= 10:  # the tridiagonal matrices satisfy it, the far entry breaks it
                    assert zero == (k < 10)
                zeros.append(zero)
        assert len(zeros) == 164 and 40 < sum(zeros) < 164

    def test_short_array_is_a_dimension_mismatch(self):
        # A is diagonalizable with theta, but theta has one entry too few
        theta = theta_sequence(2, 3, 2)
        A = ExactMatrix.diagonal(theta + [theta[-1]])
        with pytest.raises(DimensionMismatch):
            _spectral_eigenlines(_idempotents(A, theta), ExactMatrix.identity(4), theta,
                                 Fraction(2))


D1_PARAMETERS = [(3, 2, 2), ("5/2", 3, "3/2"), (4, "7/3", "5/2"), (2, 5, 3), ("3/2", "2/3", "7/4")]
SEARCHED = [(d, q0) for d in (2, 3) for q0 in (2, "5/3")]


def _pair(spec):
    tp = td_pair_d1(*spec) if len(spec) == 3 else search_td_pair(spec[0], 3, 5, Fraction(spec[1]))
    assert tp is not None
    return tp


class TestDiameterOnePair:
    def test_documented_eigenvalues(self):
        tp = td_pair_d1(3, 2, 2)
        assert tp.theta == [Fraction(37, 6), Fraction(13, 6)]

    def test_second_generator_spectrum(self):
        tp = td_pair_d1(3, 2, 2)
        # symmetric 2x2 with eigenvalues exactly the dual array
        tr = tp.B[0, 0] + tp.B[1, 1]
        det = tp.B[0, 0] * tp.B[1, 1] - tp.B[0, 1] * tp.B[1, 0]
        assert tr == sum(tp.theta_star)
        assert det == tp.theta_star[0] * tp.theta_star[1]

    def test_irreducibility(self):
        tp = td_pair_d1(3, 2, 2)
        assert validate_td_pair(tp) == []

    @pytest.mark.parametrize("a,b,q0", D1_PARAMETERS)
    def test_random_parameter_family(self, a, b, q0):
        tp = td_pair_d1(a, b, q0)
        assert validate_td_pair(tp) == []


class TestEigenbasisMatrix:
    @pytest.mark.parametrize("spec", D1_PARAMETERS + SEARCHED, ids=str)
    def test_zero_pattern_is_the_idempotent_sandwich(self, spec):
        import random

        tp = _pair(spec)
        n = tp.d + 1
        rng = random.Random(str(spec))
        for G, H, eigs in ((tp.A, tp.B, tp.theta), (tp.B, tp.A, tp.theta_star)):
            E = _idempotents(G, eigs)
            sparse = [
                ExactMatrix([[Fraction(rng.choice((0, 0, 0, -2, -1, 1, 3))) for _ in range(n)]
                             for _ in range(n)])
                for _ in range(30)
            ]
            for M in [G, H, H * H, G * H - H * G] + sparse:
                P = _in_eigenbasis(E, M)
                sandwich = [[(E[i] * M * E[j]).is_zero() for j in range(n)] for i in range(n)]
                assert [[not P[i, j] for j in range(n)] for i in range(n)] == sandwich


class TestIrreducibility:
    THETA = theta_sequence(3, 3, 2)

    @staticmethod
    def _upper_bidiagonal(corner=0):
        # zero diagonal, unit superdiagonal, and `corner` at (3, 0)
        rows = [[Fraction(int(j == i + 1)) for j in range(4)] for i in range(4)]
        rows[3][0] = Fraction(corner)
        return ExactMatrix(rows)

    def _violations(self, A, B):
        return validate_td_pair(TDPair(3, Fraction(3), Fraction(5), Fraction(2), A, B))

    def test_upper_bidiagonal_is_reducible(self):
        # A diagonal and B upper triangular generate the 10-dimensional triangular algebra
        A = ExactMatrix.diagonal(self.THETA)
        assert "irreducibility" in self._violations(A, self._upper_bidiagonal())

    def test_corner_closes_the_cycle(self):
        # 0 -> 1 -> 2 -> 3 -> 0 links every eigenline: the full 16-dimensional algebra
        A = ExactMatrix.diagonal(self.THETA)
        assert "irreducibility" not in self._violations(A, self._upper_bidiagonal(1))

    def test_jordan_block_is_rejected_without_an_eigenbasis(self):
        # B = A - theta_0: the two commute, so both relations hold; with no
        # eigenbasis of A irreducibility is not read, only diagonalizability
        A = self._upper_bidiagonal() + ExactMatrix.diagonal([self.THETA[0]] * 4)
        assert self._violations(A, self._upper_bidiagonal()) == [
            "first-generator-diagonalizable",
            "second-generator-diagonalizable",
        ]


class TestImportExport:
    def test_roundtrip(self, tmp_path):
        tp = td_pair_d1(3, 2, 2)
        path = tmp_path / "pair.json"
        path.write_text(__import__("json").dumps(td_pair_to_json(tp)))
        again = import_td_pair(path)
        assert again.A == tp.A and again.B == tp.B

    def test_matrix_json_roundtrip(self):
        M = ExactMatrix([[Fraction(1, 3), Fraction(2)], [Fraction(-5), Fraction(0)]])
        assert matrix_from_json(matrix_to_json(M)) == M

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            import_td_pair(path)

    def test_relation_failure_reported(self, tmp_path):
        import json

        tp = td_pair_d1(3, 2, 2)
        data = td_pair_to_json(tp)
        data["B"]["entries"][0][0] = "999"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation) as err:
            import_td_pair(path)
        assert any("relation" in v or "diagonalizable" in v for v in err.value.violations)

    def test_bad_parameters_name_the_eigenvalue_arrays(self, tmp_path):
        import json

        data = td_pair_to_json(td_pair_d1(3, 2, 2))
        data["a"] = "1"  # the first eigenvalue array collides
        path = tmp_path / "collision.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation) as err:
            import_td_pair(path)
        (violation,) = err.value.violations
        assert violation.startswith("eigenvalue-arrays: ")

    def test_bad_dual_parameter_is_named(self, tmp_path):
        import json

        data = td_pair_to_json(td_pair_d1(3, 2, 2))
        data["b"] = "0"
        path = tmp_path / "zero-dual.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation) as err:
            import_td_pair(path)
        assert err.value.violations == ["eigenvalue-arrays: b must be nonzero"]

    def test_zero_denominator_is_a_parse_error(self, tmp_path):
        import json

        data = td_pair_to_json(td_pair_d1(3, 2, 2))
        data["B"]["entries"][0][1] = "1/0"
        path = tmp_path / "zero-denominator.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            import_td_pair(path)

    def test_reducible_pair_rejected(self, tmp_path):
        import json

        # block-diagonal pair: bands break and the generated algebra is small
        theta = theta_sequence(3, 3, 2)
        theta_star = theta_sequence(3, 5, 2)
        A = ExactMatrix.diagonal(theta)
        B = ExactMatrix(
            [
                [theta_star[0], 0, 0, 0],
                [0, theta_star[1], 0, 0],
                [0, 0, theta_star[2], 0],
                [0, 0, 0, theta_star[3]],
            ]
        )
        data = {
            "A": matrix_to_json(A),
            "B": matrix_to_json(B),
            "a": "3",
            "b": "5",
            "q": "2",
            "d": 3,
        }
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvariantViolation) as err:
            import_td_pair(path)
        assert "irreducibility" in err.value.violations


class TestTwist:
    def test_twist_preserves_invariants(self):
        tp = td_pair_d1(3, 2, 2)
        sd = spectral_data(1, 3, 2)
        twisted = twist_module(tp, sd, FORWARD)
        assert validate_td_pair(twisted) == []
        assert twisted.A == tp.A

    def test_double_twist_restores(self):
        tp = td_pair_d1("5/2", 3, "3/2")
        sd = spectral_data(1, Fraction(5, 2), Fraction(3, 2))
        assert twist_module(twist_module(tp, sd, FORWARD), sd, INVERSE).B == tp.B


class TestSearch:
    @pytest.mark.parametrize("d", [2, 3])
    def test_finds_validated_pairs(self, d):
        tp = search_td_pair(d, 3, 5, 2)
        assert tp is not None
        assert validate_td_pair(tp) == []

    def test_reports_failure_without_prejudice(self):
        # degenerate dual array: no pair can exist with these parameters
        assert search_td_pair(2, 3, 2, 2) is None

    @pytest.mark.parametrize("d,a,b,q0", [(1, 3, 0, 2), (0, 3, 2, 2), (1, 0, 3, 2)])
    def test_no_eigenvalue_arrays_is_none(self, d, a, b, q0):
        # a zero b or a, or a diameter below 1, gives no array to search with
        assert search_td_pair(d, a, b, q0) is None

    def test_search_pair_spectral_data_roundtrip(self):
        tp = search_td_pair(3, 3, 5, 2)
        sd = spectral_data(tp.d, tp.a, tp.q0, A=tp.A)
        twisted = twist_module(tp, sd, FORWARD)
        back = twist_module(twisted, sd, INVERSE)
        assert back.B == tp.B
