import itertools
import json
import random

import pytest

from hybridcensus import exact_arith, quadform
from hybridcensus.exact_arith import (
    SQRT2,
    LocalPlace,
    LocalValue,
    Sqrt2Int,
    is_square_f,
    legendre,
    primes_from,
    smallest_nonresidue,
    valuation_f,
)
from hybridcensus.quadform import (
    DiagonalForm,
    NoncommCertificate,
    _local_certificate,
    _odd_certificate,
    _square_classes,
    _witness_at,
    certify_noncommensurable,
    disc_class,
    generate_family,
    hasse_witt,
    hilbert_symbol,
    is_admissible,
    is_anisotropic_certified,
    local_invariants,
    signatures,
    verify_certificate,
)

FAMILY_PRIMES = [7, 23, 31, 47, 71, 79, 103, 127, 151, 167]


def hilbert_oracle(a_val: int, a_unit: int, b_val: int, b_unit: int, p: int) -> int:
    """Independent oracle: (a, b)_p = +1 iff z^2 = a x^2 + b y^2 has a primitive
    solution mod p^3.  For odd p and valuations <= 1 a primitive zero mod p^3
    Hensel-lifts, so the finite search decides the symbol."""
    a = p**a_val * a_unit
    b = p**b_val * b_unit
    mod = p**3
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % mod in squares:
                return 1
    return -1


class TestHilbertSymbol:
    def test_units_give_one(self):
        for p in (7, 23, 31):
            for ua in range(1, 6):
                for ub in range(1, 6):
                    assert hilbert_symbol(LocalValue(0, ua), LocalValue(0, ub), p) == 1

    def test_prime_against_minus_sqrt2(self):
        place = LocalPlace.at(7)
        a = valuation_f(Sqrt2Int(7), place)
        b = valuation_f(-SQRT2, place)
        assert hilbert_symbol(a, b, place.p) == -1

    def test_prime_against_nonresidue(self):
        # legendre(3, 7) = -1 by Euler's criterion: 3^3 = 27 = 6 mod 7
        assert hilbert_symbol(LocalValue(1, 1), LocalValue(0, 3), 7) == -1

    def test_a_minus_a_is_one(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice([3, 5, 7, 11, 13, 23, 31, 101, 199])
            val = rng.randrange(0, 4)
            unit = rng.randrange(1, p)
            a = LocalValue(val, unit)
            neg_a = LocalValue(val, (-unit) % p)
            assert hilbert_symbol(a, neg_a, p) == 1

    def test_even_modulus_rejected(self):
        for p in (4, 9, 15):  # 9 and 15: odd but composite
            with pytest.raises(ValueError):
                hilbert_symbol(LocalValue(0, 1), LocalValue(0, 1), p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_against_isotropy_oracle_exhaustive(self, p):
        for a_val in (0, 1):
            for b_val in (0, 1):
                for a_unit in range(1, p):
                    for b_unit in range(1, p):
                        got = hilbert_symbol(LocalValue(a_val, a_unit), LocalValue(b_val, b_unit), p)
                        assert got == hilbert_oracle(a_val, a_unit, b_val, b_unit, p)

    def test_against_isotropy_oracle_sampled_at_7(self):
        rng = random.Random(12)
        for _ in range(12):
            a_val, b_val = rng.randrange(2), rng.randrange(2)
            a_unit, b_unit = rng.randrange(1, 7), rng.randrange(1, 7)
            got = hilbert_symbol(LocalValue(a_val, a_unit), LocalValue(b_val, b_unit), 7)
            assert got == hilbert_oracle(a_val, a_unit, b_val, b_unit, 7)

    def test_symmetry_and_bimultiplicativity(self):
        rng = random.Random(13)
        odd_primes = [p for p in range(3, 200, 2) if all(p % q for q in range(3, p, 2))]
        for _ in range(500):
            p = rng.choice(odd_primes)
            a = LocalValue(rng.randrange(0, 4), rng.randrange(1, p))
            a2 = LocalValue(rng.randrange(0, 4), rng.randrange(1, p))
            b = LocalValue(rng.randrange(0, 4), rng.randrange(1, p))
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            prod = LocalValue(a.val + a2.val, a.unit * a2.unit % p)
            assert hilbert_symbol(prod, b, p) == hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)


Q7 = DiagonalForm.standard(7, 4)
Q23 = DiagonalForm.standard(23, 4)


class TestHasseWitt:
    def test_family_form_at_own_prime(self):
        assert hasse_witt(Q7, LocalPlace.at(7)) == -1

    def test_family_form_at_later_prime(self):
        assert hasse_witt(Q7, LocalPlace.at(23)) == 1

    def test_all_ones_form(self):
        ones = DiagonalForm(tuple(Sqrt2Int(1) for _ in range(5)))
        for p in (7, 17, 23, 31):
            assert hasse_witt(ones, LocalPlace.at(p)) == 1

    def test_permutation_invariance(self):
        rng = random.Random(14)
        for _ in range(100):
            dim = rng.randrange(3, 7)
            coeffs = []
            while len(coeffs) < dim:
                c = Sqrt2Int(rng.randint(-40, 40), rng.randint(-40, 40))
                if c:
                    coeffs.append(c)
            place = LocalPlace.at(rng.choice([7, 17, 23, 31, 41]))
            q = DiagonalForm(tuple(coeffs))
            shuffled = coeffs[:]
            rng.shuffle(shuffled)
            q2 = DiagonalForm(tuple(shuffled))
            assert hasse_witt(q, place) == hasse_witt(q2, place)
            assert disc_class(q, place) == disc_class(q2, place)

    def test_square_scaling_invariance(self):
        rng = random.Random(15)
        for _ in range(100):
            dim = rng.randrange(3, 6)
            coeffs = []
            while len(coeffs) < dim:
                c = Sqrt2Int(rng.randint(-30, 30), rng.randint(-30, 30))
                if c:
                    coeffs.append(c)
            place = LocalPlace.at(rng.choice([7, 17, 23, 31]))
            q = DiagonalForm(tuple(coeffs))
            i = rng.randrange(dim)
            y = Sqrt2Int(rng.randint(-9, 9), rng.randint(-9, 9))
            if not y:
                y = Sqrt2Int(1, 1)
            scaled = list(coeffs)
            scaled[i] = scaled[i] * y * y
            q2 = DiagonalForm(tuple(scaled))
            assert hasse_witt(q, place) == hasse_witt(q2, place)
            assert disc_class(q, place) == disc_class(q2, place)
            scaled_p = list(coeffs)
            scaled_p[i] = scaled_p[i] * (place.p * place.p)
            q3 = DiagonalForm(tuple(scaled_p))
            assert hasse_witt(q, place) == hasse_witt(q3, place)
            assert disc_class(q, place) == disc_class(q3, place)


class TestDiscClass:
    def test_q7_at_7(self):
        # product 7 * (-sqrt2) embeds with valuation 1 and unit 3: (1, leg(3,7)) = (1, -1)
        assert disc_class(Q7, LocalPlace.at(7)) == (1, -1)

    def test_q23_at_7_is_unit(self):
        parity, _ = disc_class(Q23, LocalPlace.at(7))
        assert parity == 0

    def test_p_squared_scaling_fixed(self):
        place = LocalPlace.at(7)
        scaled = DiagonalForm((Q7.coeffs[0] * 49,) + Q7.coeffs[1:])
        assert disc_class(scaled, place) == disc_class(Q7, place)


class TestSignatures:
    def test_family_form(self):
        assert signatures(Q7) == (1, 0)

    def test_all_ones(self):
        ones = DiagonalForm(tuple(Sqrt2Int(1) for _ in range(5)))
        assert signatures(ones) == (0, 0)

    def test_negated_family_form(self):
        neg = DiagonalForm(tuple(-c for c in Q7.coeffs))
        assert signatures(neg) == (4, 5)

    def test_admissibility(self):
        assert is_admissible(signatures(Q7))
        ones = DiagonalForm(tuple(Sqrt2Int(1) for _ in range(5)))
        assert not is_admissible(signatures(ones))
        # +sqrt2 instead of -sqrt2 mirrors the signature to (0, 1): still admissible
        plus_sqrt2 = DiagonalForm(Q7.coeffs[:-1] + (SQRT2,))
        assert signatures(plus_sqrt2) == (0, 1)
        assert is_admissible(signatures(plus_sqrt2))
        # Lorentzian at both embeddings is what admissibility rules out
        both_lorentz = DiagonalForm(Q7.coeffs[:-1] + (Sqrt2Int(-1),))
        assert signatures(both_lorentz) == (1, 1)
        assert not is_admissible(signatures(both_lorentz))
        # u and v of opposite signs: 1 - sqrt2 < 0 < 1 + sqrt2, -1 + sqrt2 > 0 > -1 - sqrt2,
        # 3 - 2 sqrt2 > 0 at both embeddings and -3 + 2 sqrt2 < 0 at both
        for last, sig in (
            (Sqrt2Int(1, -1), (1, 0)),
            (Sqrt2Int(-1, 1), (0, 1)),
            (Sqrt2Int(3, -2), (0, 0)),
            (Sqrt2Int(-3, 2), (1, 1)),
        ):
            mixed = DiagonalForm(Q7.coeffs[:-1] + (last,))
            assert signatures(mixed) == sig
            assert is_admissible(signatures(mixed)) == (sig in ((1, 0), (0, 1)))

    def test_anisotropy_certificate(self):
        assert is_anisotropic_certified(signatures(Q7), Q7.dim)
        lorentz = DiagonalForm(tuple(Sqrt2Int(1) for _ in range(4)) + (Sqrt2Int(-1),))
        assert not is_anisotropic_certified(signatures(lorentz), lorentz.dim)
        neg = DiagonalForm(tuple(-c for c in Q7.coeffs))
        assert is_anisotropic_certified(signatures(neg), neg.dim)

    def test_predicates_refuse_a_form(self):
        # the predicates read a signature pair; a form is never read as one
        with pytest.raises(TypeError):
            is_admissible(Q7)
        with pytest.raises(TypeError):
            is_anisotropic_certified(Q7)
        with pytest.raises(TypeError):
            is_anisotropic_certified(Q7, Q7.dim)


def scaled_form(q: DiagonalForm, lam: int) -> DiagonalForm:
    """lambda * q for a rational lambda."""
    return DiagonalForm(tuple(c * Sqrt2Int(lam) for c in q.coeffs))


def class_representatives(p: int) -> dict:
    """Rational representatives 1, u, p, up of the square classes of Q_p^*,
    keyed by the labels of `_square_classes`."""
    u = smallest_nonresidue(p)
    return {"1": 1, "u": u, "p": p, "up": u * p}


class TestScaledInvariants:
    """The invariants of lambda * q are those of the form with every
    coefficient multiplied by a rational representative of lambda's class;
    `_witness_at` reaches the same rows by scaling local values instead."""

    def test_identity_class(self):
        place = LocalPlace.at(7)
        assert local_invariants(scaled_form(Q23, 1), place) == local_invariants(Q23, place)

    def test_hand_expanded_value(self):
        # n = 4, all ten pair symbols of p * q_23 at p = 7 multiply to +1
        assert local_invariants(scaled_form(Q23, 7), LocalPlace.at(7))["hasse"] == 1

    def test_depends_only_on_square_class(self):
        rng = random.Random(16)
        for _ in range(100):
            place = LocalPlace.at(rng.choice([7, 17, 23, 31]))
            p = place.p
            lam_label, lam = rng.choice(list(class_representatives(p).items()))
            # multiply lambda by a random square of Q_p
            s = rng.randrange(1, p) * p ** rng.randrange(0, 3)
            got1 = local_invariants(scaled_form(Q23, lam), place)
            got2 = local_invariants(scaled_form(Q23, lam * s * s), place)
            assert got1 == got2
            assert valuation_f(Sqrt2Int(lam), place) == dict(_square_classes(p))[lam_label]

    @pytest.mark.parametrize("n", [4, 8])
    def test_witness_rows_are_scaled_invariants(self, n):
        forms = generate_family(n, 4)
        for q, q2 in itertools.permutations(forms, 2):
            witness = _witness_at(q, q2, q.coeffs[0].u)
            assert witness is not None
            place = LocalPlace(witness["p"], witness["sqrt2_root"])
            assert witness["target"]["invariants"] == local_invariants(q, place)
            reps = class_representatives(place.p)
            assert [row["lambda"] for row in witness["rows"]] == list(reps)
            for row in witness["rows"]:
                q2_lam = scaled_form(q2, reps[row["lambda"]])
                local = [valuation_f(c, place) for c in q2_lam.coeffs]
                assert row["coeffs_local"] == [{"val": c.val, "unit": c.unit} for c in local]
                assert row["invariants"] == local_invariants(q2_lam, place)


class TestCertify:
    def test_spec_pair_witness_at_23(self):
        cert = certify_noncommensurable(Q23, Q7, 4)
        assert cert is not None and cert.kind == "LocalWitness"
        assert cert.witness["p"] == 23
        assert cert.witness["direction"] == "forward"
        assert [row["lambda"] for row in cert.witness["rows"]] == list(dict(_square_classes(23)))
        assert all(row["mismatches"] for row in cert.witness["rows"])

    def test_reverse_pair_and_swapped_record(self):
        cert = certify_noncommensurable(Q7, Q23, 4)
        assert cert is not None and cert.witness["p"] == 7
        assert cert.swapped is not None and cert.swapped["p"] == 23

    def test_self_comparison_fails(self):
        assert certify_noncommensurable(Q7, Q7, 4) is None

    def test_odd_dimension_witness(self):
        q3 = DiagonalForm.standard(3, 3)
        q7 = DiagonalForm.standard(7, 3)
        cert = certify_noncommensurable(q3, q7, 3)
        assert cert is not None and cert.kind == "OddDiscWitness"
        assert cert.witness["ratio_product"] == {"u": "21", "v": "0"}
        assert cert.witness["square_test"]["result"] is False

    def test_odd_dimension_square_ratio_fails(self):
        # 1 and 2 differ by the square of sqrt2
        q1 = DiagonalForm.standard(1, 3)
        q2 = DiagonalForm.standard(2, 3)
        assert certify_noncommensurable(q1, q2, 3) is None

    @pytest.mark.parametrize("n", [3, 5])
    def test_conjugate_pair_refused(self, n):
        # q and its conjugate give one lattice, read through the two real
        # embeddings; their discriminant ratio is still a non-square, so the
        # odd witness would be true of the forms and say nothing of lattices
        rng = random.Random(3)
        for _ in range(20):
            q = random_admissible(rng, n)
            sigma_q = conjugate_form(q)
            assert is_admissible(signatures(sigma_q)) and signatures(sigma_q) == signatures(q)[::-1]
            with pytest.raises(ValueError, match="same real embedding"):
                certify_noncommensurable(q, sigma_q, n)
            with pytest.raises(ValueError, match="same real embedding"):
                certify_noncommensurable(sigma_q, q, n)
            hostile = _odd_certificate(q, sigma_q)
            assert hostile is not None and not verify_certificate(hostile)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            certify_noncommensurable(Q7, DiagonalForm.standard(7, 6))

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            certify_noncommensurable(Q7, Q23, 6)

    def test_inadmissible_rejected(self):
        ones = DiagonalForm(tuple(Sqrt2Int(1) for _ in range(5)))
        with pytest.raises(ValueError):
            certify_noncommensurable(ones, Q7)

    def test_budget_exhaustion(self):
        # no prime = 7 mod 8 at or below 6, in either scan direction
        assert certify_noncommensurable(Q23, Q7, 4, place_budget=6) is None

    def test_reverse_direction_fallback(self):
        # budget 20 starves the forward scan (only p = 23 separates q_23 as
        # target) but the swapped orientation still witnesses at p = 7
        cert = certify_noncommensurable(Q23, Q7, 4, place_budget=20)
        assert cert is not None
        assert cert.witness["direction"] == "reverse"
        assert cert.witness["p"] == 7
        assert verify_certificate(cert)


def exhaustive_scan(target, scaled, budget):
    """Oracle for the place scan: every prime p = 7 (mod 8) up to the budget at
    which the scaled form is unimodular, in increasing order."""
    norms = [c.norm() for c in scaled.coeffs]
    for p in primes_from(3):
        if p > budget:
            return None
        if p % 8 == 7 and all(n % p for n in norms):
            witness = _witness_at(target, scaled, p)
            if witness is not None:
                return witness


def oracle_certificate(q, q2, budget):
    """certify_noncommensurable for even n, with both scans exhaustive."""
    cert = _local_certificate(q, q2, exhaustive_scan(q, q2, budget), exhaustive_scan(q2, q, budget))
    return None if cert is None else cert.to_json()


def random_admissible(rng, n):
    """Totally positive a_1..a_n and a last coefficient of negative norm, which
    is negative at exactly one real embedding.  The last coefficient is
    conjugated when needed so that, like the standard family, every form is
    hyperbolic at the identity embedding (u + v*sqrt(2) < 0 iff v < 0 here)."""

    def draw(positive_norm):
        while True:
            c = Sqrt2Int(rng.randint(-40, 40), rng.randint(-20, 20))
            if positive_norm and c.u > 0 and c.norm() > 0:
                return c
            if not positive_norm and c.norm() < 0:
                return c if c.v < 0 else c.conjugate()

    return DiagonalForm(tuple(draw(True) for _ in range(n)) + (draw(False),))


def conjugate_form(q):
    """The form with every coefficient u + v*sqrt(2) replaced by u - v*sqrt(2)."""
    return DiagonalForm(tuple(c.conjugate() for c in q.coeffs))


class TestFastScan:
    """The scan visits only places dividing a target norm; the certificate
    must equal the one from the exhaustive walk."""

    def check(self, q, q2, budget):
        cert = certify_noncommensurable(q, q2, q.n, budget)
        got = None if cert is None else cert.to_json()
        assert got == oracle_certificate(q, q2, budget)
        return got

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_family_pairs_match_oracle(self, n):
        fam = generate_family(n, 8)
        budget = fam[-1].coeffs[0].u  # the last witness place is the budget itself
        found = [self.check(f, g, budget) for f in fam for g in fam if f is not g]
        assert all(found) if n % 4 == 0 else not any(found)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_random_forms_match_oracle(self, n):
        rng = random.Random(100 + n)
        found = 0
        for budget in (6, 50, 400):
            for _ in range(30):
                q, q2 = random_admissible(rng, n), random_admissible(rng, n)
                assert is_admissible(signatures(q)) and is_admissible(signatures(q2))
                found += self.check(q, q2, budget) is not None
        assert found

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_budget_at_largest_norm_is_enough(self, n):
        q, q2 = generate_family(n, 2)
        largest = max(abs(c.norm()) for c in q.coeffs + q2.coeffs)
        cert = self.check(q, q2, largest)
        full = certify_noncommensurable(q, q2, n, 10**5)
        assert cert == (None if full is None else full.to_json())

    @pytest.mark.parametrize("budget", [16, 100, 1000])
    def test_composite_place_split_across_norms(self, budget):
        # 15 = 7 (mod 8) divides the product 9 * 25 of two target norms but
        # neither norm; the scan must still refuse it as a place
        q = DiagonalForm((Sqrt2Int(3), Sqrt2Int(5), Sqrt2Int(1), Sqrt2Int(1), -SQRT2))
        assert is_admissible(signatures(q))
        for f in generate_family(4, 4):
            self.check(q, f, budget)
            self.check(f, q, budget)


class TestVerifier:
    def test_local_witness_roundtrip(self):
        cert = certify_noncommensurable(Q23, Q7, 4)
        assert verify_certificate(cert)
        blob = json.dumps(cert.to_json(), sort_keys=True)
        restored = NoncommCertificate.from_json(json.loads(blob))
        assert restored == cert
        assert verify_certificate(restored)

    def test_odd_witness_roundtrip(self):
        cert = certify_noncommensurable(
            DiagonalForm.standard(3, 3), DiagonalForm.standard(5, 3), 3
        )
        restored = NoncommCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert verify_certificate(restored)

    def test_odd_witness_at_the_size_bound(self, monkeypatch):
        # the norms 9, 25, 4^10, 4^20, 4^11, 4^21 and 2, 2 give s = 3 + 4 + 124 + 2
        # = 133, and the product 15 * 2^63 has u^2 of 134 bits: one bit to spare
        q = DiagonalForm((Sqrt2Int(3), Sqrt2Int(2**10), Sqrt2Int(2**20), -SQRT2))
        q2 = DiagonalForm((Sqrt2Int(5), Sqrt2Int(2**11), Sqrt2Int(2**21), -SQRT2))
        cert = certify_noncommensurable(q, q2, 3)
        assert cert.witness["ratio_product"] == {"u": str(15 * 2**63), "v": "0"}
        assert verify_certificate(cert)
        # a recorded product one bit shorter is refused before the product is taken
        doc = json.loads(json.dumps(cert.to_json()))
        doc["witness"]["ratio_product"]["u"] = str(15 * 2**62)
        calls = []
        product = quadform._disc_ratio_product
        monkeypatch.setattr(quadform, "_disc_ratio_product", lambda *args: calls.append(1) or product(*args))
        assert not verify_certificate(NoncommCertificate.from_json(doc)) and not calls
        assert verify_certificate(cert) and calls

    def test_tampered_symbol_rejected(self):
        cert = certify_noncommensurable(Q23, Q7, 4)
        doc = cert.to_json()
        doc["witness"]["rows"][0]["symbols"][0]["symbol"] *= -1
        assert not verify_certificate(NoncommCertificate.from_json(doc))

    def test_tampered_invariant_rejected(self):
        cert = certify_noncommensurable(Q23, Q7, 4)
        doc = cert.to_json()
        doc["witness"]["target"]["invariants"]["hasse"] *= -1
        assert not verify_certificate(NoncommCertificate.from_json(doc))

    def test_wrong_place_rejected(self):
        cert = certify_noncommensurable(Q23, Q7, 4)
        doc = cert.to_json()
        doc["witness"]["p"] = 31
        doc["witness"]["sqrt2_root"] = 8
        assert not verify_certificate(NoncommCertificate.from_json(doc))

    def test_place_above_primality_bound_rejected(self, monkeypatch):
        # P is the least prime = 7 (mod 8) above 3317044064679887385961981,
        # where is_prime stops being exact.  (q_P, q_7) has a true witness at
        # P, built here with primality taken on trust and the bound moved past
        # P; the verifier cannot check that P is prime, so it rejects the
        # certificate.
        P = 3317044064679887385962191
        q_big = DiagonalForm.standard(P, 4)
        with monkeypatch.context() as m:
            m.setattr(exact_arith, "is_prime", lambda n: True)
            m.setattr(exact_arith, "_MR_BOUND", P + 1)
            witness = _witness_at(q_big, Q7, P)
            cert = NoncommCertificate(
                "LocalWitness", q_big, Q7, dict(witness, direction="forward")
            )
            assert verify_certificate(cert)
        assert not verify_certificate(cert)

    @pytest.mark.parametrize("which", ["witness", "swapped"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda w: w["rows"].pop(),
            lambda w: w["rows"].append(w["rows"][0]),
            lambda w: w["target"]["symbols"].pop(),
            lambda w: w["rows"][2]["coeffs_local"].append({"unit": 1, "val": 0}),
        ],
        ids=["three-rows", "five-rows", "short-symbols", "long-coeffs"],
    )
    def test_misshapen_witness_refused_before_any_table(self, monkeypatch, which, edit):
        doc = certify_noncommensurable(Q7, Q23, 4).to_json()
        edit(doc[which])
        cert = NoncommCertificate.from_json(doc)
        calls = []
        table = quadform._table
        monkeypatch.setattr(quadform, "_table", lambda *args: calls.append(1) or table(*args))
        assert not verify_certificate(cert) and not calls

    def test_place_off_7_mod_8_carries_no_witness(self):
        # every square class of scalars mismatches q_17 at p = 17 too, but
        # witness places are p = 7 (mod 8), so no table is built there
        assert _witness_at(DiagonalForm.standard(17, 4), Q7, 17) is None

    def test_mismatched_kind_rejected(self):
        cert = certify_noncommensurable(Q23, Q7, 4)
        doc = cert.to_json()
        doc["kind"] = "OddDiscWitness"
        assert not verify_certificate(NoncommCertificate.from_json(doc))


def genuine_certificates():
    """One certificate of each layout: forward with a swapped record, n = 8,
    reverse only, and odd."""
    q7_8, q23_8 = generate_family(8, 2)
    return {
        "forward": certify_noncommensurable(Q7, Q23, 4),
        "n8": certify_noncommensurable(q23_8, q7_8, 8),
        "reverse": certify_noncommensurable(Q23, Q7, 4, place_budget=20),
        "odd": certify_noncommensurable(DiagonalForm.standard(3, 3), DiagonalForm.standard(5, 3), 3),
    }


OTHER_VALUE = {
    "LocalWitness": "OddDiscWitness",
    "OddDiscWitness": "LocalWitness",
    "forward": "reverse",
    "reverse": "forward",
}


def leaf_edits(node, path=()):
    """(path, new value) changing one leaf of a JSON document: a positive int
    negated and any other int moved up by one, a bool flipped, the numerator
    of a numeral string moved by one, and kind or direction set to the other
    value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_edits(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_edits(value, path + (i,))
    elif isinstance(node, bool):
        yield path, not node
    elif isinstance(node, int):
        yield path, -node if node > 0 else node + 1
    elif node in OTHER_VALUE:
        yield path, OTHER_VALUE[node]
    elif isinstance(node, str) and node.lstrip("-").partition("/")[0].isdigit():
        num, slash, den = node.partition("/")
        yield path, f"{int(num) + 1}{slash}{den}"


DELETE = object()


def refused(doc):
    try:
        cert = NoncommCertificate.from_json(doc)
    except ValueError:
        return True
    return not verify_certificate(cert)


def refused_after(doc, path, value):
    """Whether the document with one field set (or deleted) is refused; the
    document is restored afterwards."""
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    missing = isinstance(node, dict) and last not in node
    old = None if missing else node[last]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    try:
        return refused(doc)
    finally:
        if missing:
            del node[last]
        else:
            node[last] = old


# Edits that pass at a parser coercing types and a verifier comparing field
# by field, and roots of 2 other than the one `LocalPlace.at` picks, each
# applied to the forward n = 4 certificate (witness at p = 7, root 4).
NAMED_EDITS = {
    "u as a fraction": (("form", "coeffs", 0, "u"), 7.9),
    "u as a number": (("form", "coeffs", 0, "u"), 7),
    "n as a fraction": (("n",), 4.5),
    "direction deleted": (("witness", "direction"), DELETE),
    "extra top-level key": (("note",), "hand-edited"),
    "empty swapped record": (("swapped",), {}),
    "root p - c": (("witness", "sqrt2_root"), 3),
    "root c + p": (("witness", "sqrt2_root"), 11),
    "non-root": (("witness", "sqrt2_root"), 5),
}


class TestHostileDocuments:
    @pytest.mark.parametrize("name", ["forward", "n8", "reverse", "odd"])
    def test_every_leaf_edit_refused(self, name):
        doc = genuine_certificates()[name].to_json()
        edits = list(leaf_edits(doc))
        assert len(edits) > 20
        for path, value in edits:
            assert refused_after(doc, path, value), (path, value)
        assert not refused(doc)

    @pytest.mark.parametrize("name", ["forward", "reverse", "odd"])
    def test_every_key_deletion_refused(self, name):
        doc = genuine_certificates()[name].to_json()
        paths = {path[:i] for path, _ in leaf_edits(doc) for i in range(1, len(path) + 1)}
        for path in sorted(paths, key=repr):
            if isinstance(path[-1], str):
                assert refused_after(doc, path, DELETE), path
        assert not refused(doc)

    @pytest.mark.parametrize("edit", NAMED_EDITS)
    def test_named_edit_refused(self, edit):
        doc = genuine_certificates()["forward"].to_json()
        assert refused_after(doc, *NAMED_EDITS[edit])

    def test_swapped_record_is_optional(self):
        # the one edit that leaves a valid certificate: a forward witness
        # certifies without the swapped table beside it
        doc = genuine_certificates()["forward"].to_json()
        assert not refused_after(doc, ("swapped",), None)


class TestGenerateFamily:
    def test_even_family_primes(self):
        fam = generate_family(4, 10)
        assert [f.coeffs[0].u for f in fam] == FAMILY_PRIMES

    def test_even_family_pair(self):
        fam = generate_family(4, 2)
        assert [f.coeffs[0].u for f in fam] == [7, 23]

    def test_odd_family(self):
        fam = generate_family(3, 3)
        assert [f.coeffs[0].u for f in fam] == [2, 3, 5]

    def test_all_admissible_and_anisotropic(self):
        for n in (3, 4, 6):
            for form in generate_family(n, 5):
                assert is_admissible(signatures(form))
                assert is_anisotropic_certified(signatures(form), form.dim)
                assert signatures(form) in ((1, 0), (0, 1))

    def test_leading_coefficients_pairwise_nonsquare(self):
        """A rational x is a square in Q(sqrt(2)) iff x or 2x is a rational
        square, and a product of two distinct primes is neither; so no
        product of two leading coefficients is a square."""
        for n in (3, 4):
            fam = generate_family(n, 60)
            for i, f in enumerate(fam):
                sig = signatures(f)
                assert is_admissible(sig) and is_anisotropic_certified(sig, f.dim)
                for g in fam[:i]:
                    assert not is_square_f(f.coeffs[0] * g.coeffs[0])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_family(1, 3)
        with pytest.raises(ValueError):
            generate_family(4, 0)


class TestFormType:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            DiagonalForm((Sqrt2Int(1), Sqrt2Int(1)))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            DiagonalForm((Sqrt2Int(1), Sqrt2Int(0), Sqrt2Int(1)))

    def test_json_roundtrip(self):
        assert DiagonalForm.from_json(Q7.to_json()) == Q7

    def test_json_dimension_check(self):
        doc = Q7.to_json()
        doc["n"] = 5
        with pytest.raises(ValueError, match="does not match"):
            DiagonalForm.from_json(doc)
        for n in (4.5, "4", 4.0, True, None):
            doc["n"] = n
            with pytest.raises(ValueError, match=f"form dimension n must be an int, not {n!r}"):
                DiagonalForm.from_json(doc)
