"""Seeded op pools for the four workloads, and the check each op's output must pass.

An op is one `hybridcensus.cli.main(argv)` call.  A builder turns a seeded
random generator into a pool of ops plus one warm-up op per op kind; warm-up
inputs never appear in the pool.  Op sizes come from fixed strata and the
seed picks the content (which pairs, which letters, which volumes), so the
cost of a pool barely moves from seed to seed.

Expected outcomes include two known gaps of the program, kept in the pools
on purpose so that a fix shows up as a changed outcome:

* `forms certify` at n = 2 (mod 4): `generate_family` documents that for
  even n "the local scan always separates", but no pair of family forms at
  n = 2 or n = 6 gets a witness today (exit 1), while n = 4 and n = 8 pairs
  always do (exit 0).
* `census` rows whose exact values exceed the interpreter's int-to-str
  digit limit (4300 digits; r = 8 from m = 596) make the whole command exit
  2 with a JSON error instead of printing the table.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import oracles

WORKLOADS = ("certify", "verify", "words", "census")


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


@dataclass
class Pool:
    ops: list[Op]
    warmups: list[Op]


def expected_certify_exit(n: int) -> int:
    """Exit code `forms certify` gives today for a pair of family forms."""
    return 1 if n % 4 == 2 else 0


def _balanced_pairs(rng: random.Random, k: int, count: int) -> list[tuple[int, int]]:
    """Ordered pairs of distinct indices below k in which each index appears
    once per k pairs in each position, so that the total cost of the pairs
    moves little from seed to seed."""
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        order = rng.sample(range(k), k)
        d = rng.randrange(1, k)
        pairs += [(order[t], order[(t + d) % k]) for t in range(k)]
    return pairs[:count]


def _log_spaced(lo: int, hi: int, k: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k)]


def _family_leads(hc: SimpleNamespace, n: int, count: int) -> list[int]:
    return [f.coeffs[0].u for f in hc.quadform.generate_family(n, count)]


def _certify_op(n: int, a: int, a_prime: int, max_prime: int) -> Op:
    argv = ("forms", "certify", "--n", str(n), "--a", str(a), "--a-prime", str(a_prime))
    argv += ("--max-prime", str(max_prime))
    return Op("certify", argv, {"n": n, "a": a, "a_prime": a_prime, "max_prime": max_prime})


def _family_op(n: int, count: int) -> Op:
    argv = ("forms", "family", "--n", str(n), "--count", str(count))
    return Op("family", argv, {"n": n, "count": count})


# ------------------------------------------------------------------ certify

# Pairs of family forms per n, drawn from the first K = 40 forms.  The even
# n = 4 and n = 8 pairs are the middle of the cost order, so p50 lies among
# place scans that find a witness.
CERTIFY_PAIRS = {4: 80, 8: 40, 6: 20, 2: 20, 3: 50}
CERTIFY_PAIRS_SMOKE = {4: 3, 8: 2, 6: 2, 2: 1, 3: 2}


def build_certify(hc: SimpleNamespace, rng: random.Random, workdir: Path, smoke: bool) -> Pool:
    k = 12 if smoke else 40
    ops = []
    for n, count in (CERTIFY_PAIRS_SMOKE if smoke else CERTIFY_PAIRS).items():
        # form K (0-based) is never in a pool pair; the warm-up uses it
        leads = _family_leads(hc, n, k + 1)
        ops += [_certify_op(n, leads[i], leads[j], 1000) for i, j in _balanced_pairs(rng, k, count)]
    ops.append(_family_op(3, 30 if smoke else 300))
    # A far pair: the roles-swapped scan walks every prime below a' before it
    # finds its witness at a' itself, so it costs the full place budget.
    budget = 2000 if smoke else 100000
    far = [p for p in oracles.primes_up_to(budget) if p % 8 == 7 and p > budget * 0.99 - 20]
    ops.append(_certify_op(4, rng.choice(_family_leads(hc, 4, 5)), rng.choice(far), budget))
    rng.shuffle(ops)
    lead4 = _family_leads(hc, 4, k + 1)
    warmups = [_certify_op(4, lead4[k], lead4[0], 1000), _family_op(3, 5)]
    return Pool(ops, warmups)


# ------------------------------------------------------------------- verify

VERIFY_CERTS = {4: 80, 8: 40, 3: 48}
VERIFY_CERTS_SMOKE = {4: 3, 8: 2, 3: 2}
TAMPERS = ("symbol", "invariant", "place", "transcript")


def _tamper(doc: dict, how: str, rng: random.Random) -> dict:
    """A copy of a certificate with one symbol, invariant, place or transcript bit flipped."""
    doc = copy.deepcopy(doc)
    witness = doc["witness"]
    if how == "transcript":
        test = witness["square_test"]
        test["norm_is_square"] = not test["norm_is_square"]
    elif how == "symbol":
        sym = rng.choice(rng.choice(witness["rows"])["symbols"])
        sym["symbol"] = -sym["symbol"]
    elif how == "invariant":
        inv = rng.choice([witness["target"]] + witness["rows"])["invariants"]
        inv["hasse"] = -inv["hasse"]
    elif how == "place":
        p = int(witness["p"])
        witness["p"] = next(q for q in oracles.primes_up_to(8 * p + 64) if q > p and q % 8 == 7)
    else:
        raise ValueError(f"unknown tamper {how!r}")
    return doc


def _verify_op(path: Path, doc: dict, tampered: bool) -> Op:
    path.write_text(json.dumps({"status": "ok", "certificate": doc}, sort_keys=True) + "\n")
    return Op("verify", ("forms", "verify", "--cert", str(path)), {"kind": doc["kind"], "tampered": tampered})


def build_verify(hc: SimpleNamespace, rng: random.Random, workdir: Path, smoke: bool) -> Pool:
    k = 12 if smoke else 40
    pairs = list(combinations(range(k), 2))
    docs = []
    for n, count in (VERIFY_CERTS_SMOKE if smoke else VERIFY_CERTS).items():
        forms = hc.quadform.generate_family(n, k + 1)
        for i, j in rng.sample(pairs, count):
            cert = hc.quadform.certify_noncommensurable(forms[i], forms[j], n, 1000)
            docs.append(cert.to_json())
    rng.shuffle(docs)
    ops = [_verify_op(workdir / f"cert-{i:03d}.json", d, False) for i, d in enumerate(docs)]
    # One tampered copy per four certificates, each kind of tamper in turn.
    local = [d for d in docs if d["kind"] == "LocalWitness"]
    odd = [d for d in docs if d["kind"] == "OddDiscWitness"]
    for i in range(max(len(docs) // 4, len(TAMPERS))):
        how = TAMPERS[i % len(TAMPERS)]
        doc = _tamper(rng.choice(odd if how == "transcript" else local), how, rng)
        ops.append(_verify_op(workdir / f"tampered-{i:03d}.json", doc, True))
    rng.shuffle(ops)
    forms = hc.quadform.generate_family(4, k + 1)
    doc = hc.quadform.certify_noncommensurable(forms[k], forms[0], 4, 1000).to_json()
    warmups = [
        _verify_op(workdir / "warmup.json", doc, False),
        _verify_op(workdir / "warmup-tampered.json", _tamper(doc, "symbol", rng), True),
    ]
    return Pool(ops, warmups)


# -------------------------------------------------------------------- words

# (r, m) for `words enumerate`; r*m <= 20, the CLI's default cap.
ENUMERATE = ((2, 9), (3, 4), (2, 8), (2, 7), (3, 3), (4, 2), (5, 2), (2, 5))
ENUMERATE_SMOKE = ((2, 4), (3, 2))
# (length, block length) of periodic words: the stabilizer's O(m^2 / block) path.
PERIODIC = ((1000, 4), (2000, 6), (3000, 8))
PERIODIC_SMOKE = ((60, 4),)


def _random_word(rng: random.Random, m: int, r: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, r) for _ in range(m))


def _primitive_block(rng: random.Random, b: int, r: int, palindrome: bool) -> tuple[int, ...]:
    while True:
        if palindrome:
            half = _random_word(rng, b // 2, r)
            block = half + half[::-1]
        else:
            block = _random_word(rng, b, r)
        if oracles.period(block) == len(block):
            return block


def _text(word: tuple[int, ...]) -> str:
    return ",".join(map(str, word))


def _canon_op(word: tuple[int, ...], r: int) -> Op:
    return Op("canon", ("words", "canon", "--word", _text(word), "--r", str(r)), {"word": word})


def _stabilizer_op(word: tuple[int, ...], r: int) -> Op:
    return Op("stabilizer", ("words", "stabilizer", "--word", _text(word), "--r", str(r)), {"word": word})


def _commensurable_op(alpha: tuple[int, ...], beta: tuple[int, ...], r: int) -> Op:
    argv = ("words", "commensurable", "--alpha", _text(alpha), "--beta", _text(beta), "--r", str(r))
    return Op("commensurable", argv, {"alpha": alpha, "beta": beta})


def _enumerate_op(r: int, m: int) -> Op:
    return Op("enumerate", ("words", "enumerate", "--r", str(r), "--m", str(m)), {"r": r, "m": m})


def _partner(rng: random.Random, alpha: tuple[int, ...], variant: int) -> tuple[int, ...]:
    """A rotation of alpha, a shuffle of its letters, or a rotation with one swap."""
    m = len(alpha)
    beta = list(oracles.rotate(alpha, rng.randrange(m)))
    if variant == 1:
        rng.shuffle(beta)
    elif variant == 2:
        i = rng.randrange(m - 1)
        beta[i], beta[i + 1] = beta[i + 1], beta[i]
    return tuple(beta)


def build_words(hc: SimpleNamespace, rng: random.Random, workdir: Path, smoke: bool) -> Pool:
    hi = 300 if smoke else 10000
    ops = []
    for i, m in enumerate(_log_spaced(100, hi, 4 if smoke else 85)):
        r = 2 + i % 3
        ops.append(_canon_op(_random_word(rng, m, r), r))
    for i, m in enumerate(_log_spaced(100, hi, 3 if smoke else 60)):
        r = 2 + i % 3
        alpha = _random_word(rng, m, r)
        ops.append(_commensurable_op(alpha, _partner(rng, alpha, i % 3), r))
    for i, m in enumerate(_log_spaced(100, hi, 3 if smoke else 50)):
        r = 2 + i % 3
        ops.append(_stabilizer_op(_random_word(rng, m, r), r))
    for m, b in PERIODIC_SMOKE if smoke else PERIODIC:
        ops.append(_stabilizer_op(_primitive_block(rng, b, 3, False) * (m // b), 3))
    # Palindromes: a reflection exists; only the periodic one is quadratic.
    for m in (80,) if smoke else (1000, 2500, 5000):
        ops.append(_stabilizer_op(_primitive_block(rng, m, 3, True), 3))
    m, b = (48, 8) if smoke else (4000, 8)
    ops.append(_stabilizer_op(_primitive_block(rng, b, 3, True) * (m // b), 3))
    ops += [_enumerate_op(r, m) for r, m in (ENUMERATE_SMOKE if smoke else ENUMERATE)]
    rng.shuffle(ops)
    w = _random_word(rng, 50, 3)
    warmups = [
        _canon_op(w, 3),
        _commensurable_op(w, _partner(rng, w, 0), 3),
        _stabilizer_op(w, 3),
        _enumerate_op(2, 6),
    ]
    return Pool(ops, warmups)


# ------------------------------------------------------------------- census

CENSUS_R = (2, 3, 5, 8)
CENSUS_LIGHT_M = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160)
CENSUS_MID_M = (200, 250)
# The largest tables; (8, 600) lies past the digit-limit gap at m = 596 (exit 2).
CENSUS_HEAVY = ((2, 1000), (3, 600), (5, 500), (8, 600))
CENSUS_VARIANTS = ("json", "csv", "json-volumes", "csv-volumes")


def _census_op(r: int, m_max: int, variant: str, rng: random.Random, path: Path) -> Op:
    fmt = variant.split("-")[0]
    argv = ("census", "--r", str(r), "--m-max", str(m_max), "--format", fmt)
    expect: dict = {"r": r, "m_max": m_max, "format": fmt, "volumes": None}
    if variant.endswith("volumes"):
        volumes = {str(k): f"{rng.randint(1, 9)}/{rng.randint(1, 4)}" for k in range(1, r + 1)}
        path.write_text(json.dumps(volumes, sort_keys=True) + "\n")
        argv += ("--volumes", str(path))
        expect["volumes"] = volumes
        if fmt == "json":
            K, V = str(rng.randint(1, 9)), str(rng.randint(1, 40))
            argv += ("--K", K, "--V", V)
            expect.update(K=K, V=V)
    return Op("census", argv, expect)


def build_census(hc: SimpleNamespace, rng: random.Random, workdir: Path, smoke: bool) -> Pool:
    grid = []
    for r in CENSUS_R:
        for m in (4, 12) if smoke else CENSUS_LIGHT_M:
            grid += [(r, m, v) for v in CENSUS_VARIANTS]
        if not smoke:
            grid += [(r, m, v) for m in CENSUS_MID_M for v in ("json", "csv")]
    if not smoke:
        grid += [(r, m, "json") for r, m in CENSUS_HEAVY]
    ops = [_census_op(r, m, v, rng, workdir / f"volumes-{i:03d}.json") for i, (r, m, v) in enumerate(grid)]
    rng.shuffle(ops)
    warmups = [
        _census_op(4, 6, v, rng, workdir / f"warmup-volumes-{i}.json")
        for i, v in enumerate(CENSUS_VARIANTS)
    ]
    return Pool(ops, warmups)


BUILDERS: dict[str, Callable[..., Pool]] = {
    "certify": build_certify,
    "verify": build_verify,
    "words": build_words,
    "census": build_census,
}


# ------------------------------------------------------------------- checks


class Checker:
    """Checks one op's exit code and stdout against what its inputs imply.

    Returns None when the output is right, else a one-line reason.
    Certificates are re-verified with the library's own verifier; every
    other answer is re-derived in `oracles`.
    """

    def __init__(self, hc: SimpleNamespace) -> None:
        self.hc = hc
        self.census = oracles.CensusOracle()
        self._primes = oracles.primes_up_to(5000)
        self._brute: dict[tuple[int, int], int] = {}

    def check(self, op: Op, code: int, out: str) -> Optional[str]:
        try:
            return getattr(self, "_" + op.kind)(op.expect, code, out)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    @staticmethod
    def _code(code: int, want: int) -> Optional[str]:
        return None if code == want else f"exit {code}, expected {want}"

    def _certify(self, e: dict, code: int, out: str) -> Optional[str]:
        want = expected_certify_exit(e["n"])
        if code != want:
            return self._code(code, want)
        doc = json.loads(out)
        if code == 1:
            expected = {"status": "no-witness", "n": e["n"], "a": e["a"], "a_prime": e["a_prime"]}
            expected["max_prime"] = e["max_prime"]
            return None if doc == expected else f"unexpected no-witness payload {doc}"
        cert = self.hc.quadform.NoncommCertificate.from_json(doc["certificate"])
        kind = "OddDiscWitness" if e["n"] % 2 else "LocalWitness"
        if doc["status"] != "ok" or cert.kind != kind or cert.n != e["n"]:
            return f"expected an ok {kind} at n={e['n']}"
        if (cert.form.coeffs[0].u, cert.other_form.coeffs[0].u) != (e["a"], e["a_prime"]):
            return "certificate is for other forms than asked"
        if not self.hc.quadform.verify_certificate(cert):
            return "certificate does not re-verify"
        return None

    def _family(self, e: dict, code: int, out: str) -> Optional[str]:
        if code != 0:
            return self._code(code, 0)
        doc = json.loads(out)
        leads = [int(f["form"]["coeffs"][0]["u"]) for f in doc["forms"]]
        if leads != self._primes[: e["count"]]:
            return "family leading coefficients are not the first primes"
        for f in doc["forms"]:
            if f["form"]["n"] != e["n"] or not (f["admissible"] and f["anisotropic"]):
                return f"family form {f['index']} is not an admissible anisotropic n={e['n']} form"
        return None

    def _verify(self, e: dict, code: int, out: str) -> Optional[str]:
        doc = json.loads(out)
        if e["tampered"]:
            if code != 2 or doc.get("status") != "error":
                return f"tampered certificate gave exit {code}, expected 2"
            return None
        if code != 0:
            return self._code(code, 0)
        expected = {"status": "ok", "valid": True, "kind": e["kind"]}
        return None if doc == expected else f"unexpected verify payload {doc}"

    def _canon(self, e: dict, code: int, out: str) -> Optional[str]:
        if code != 0:
            return self._code(code, 0)
        doc = json.loads(out)
        word = e["word"]
        shift = oracles.least_rotation(word)
        if tuple(doc["word"]) != word or doc["shift"] != shift:
            return f"shift {doc['shift']}, expected {shift}"
        if tuple(doc["canonical"]) != oracles.rotate(word, shift):
            return "canonical word is not the least rotation"
        return None

    def _commensurable(self, e: dict, code: int, out: str) -> Optional[str]:
        if code != 0:
            return self._code(code, 0)
        doc = json.loads(out)
        alpha, beta = e["alpha"], e["beta"]
        same = oracles.canonical(alpha) == oracles.canonical(beta)
        if doc["commensurable"] != same:
            return f"commensurable={doc['commensurable']}, expected {same}"
        shift = doc["shift"]
        if not same:
            return None if shift is None else "shift given for distinct classes"
        if not 0 <= shift < oracles.period(alpha) or oracles.rotate(alpha, shift) != beta:
            return f"shift {shift} is not the smallest rotation taking alpha to beta"
        return None

    def _stabilizer(self, e: dict, code: int, out: str) -> Optional[str]:
        if code != 0:
            return self._code(code, 0)
        doc = json.loads(out)
        word = e["word"]
        rotations = len(word) // oracles.period(word)
        reflection = oracles.canonical(word[::-1]) == oracles.canonical(word)
        got = (doc["rotation_order"], doc["reflection_exists"], doc["dihedral_order"])
        want = (rotations, reflection, rotations * (2 if reflection else 1))
        return None if got == want else f"stabilizer {got}, expected {want}"

    def _enumerate(self, e: dict, code: int, out: str) -> Optional[str]:
        if code != 0:
            return self._code(code, 0)
        doc = json.loads(out)
        r, m = e["r"], e["m"]
        count = self.census.necklaces(r, m)
        if doc["count"] != count:
            return f"count {doc['count']}, expected {count}"
        if self.hc.gluing.necklace_count(r, m) != count:
            return "necklace_count disagrees with the Burnside count"
        if r * m <= 12:
            if (r, m) not in self._brute:
                self._brute[(r, m)] = self.hc.gluing.brute_force_class_count(r, m)
            if self._brute[(r, m)] != count:
                return "necklace_count disagrees with brute_force_class_count"
        classes = [tuple(c) for c in doc["classes"]]
        if len(classes) != count or any(a >= b for a, b in zip(classes, classes[1:])):
            return "classes are not strictly increasing"
        content = sorted(k for k in range(1, r + 1) for _ in range(m))
        for c in classes:
            if sorted(c) != content or oracles.least_rotation(c) != 0:
                return f"class {c} is not a canonical fixed-content word"
        return None

    def _census(self, e: dict, code: int, out: str) -> Optional[str]:
        r, m_max = e["r"], e["m_max"]
        rows = [self.census.row(r, m) for m in range(1, m_max + 1)]
        if not all(row[4] for row in rows):
            # known gap: a value past the int-to-str digit limit
            if code != 2 or json.loads(out).get("status") != "error":
                return f"exit {code}, expected 2 (row past the digit limit)"
            return None
        if code != 0:
            return self._code(code, 0)
        if e["format"] == "csv":
            lines = out.splitlines()
            if lines[0] != "m,a_m,pow2,multinomial_bound,asymptotic,ratio" or len(lines) != m_max + 1:
                return "malformed census CSV"
            for m, (line, row) in enumerate(zip(lines[1:], rows), start=1):
                if line.split(",")[:4] != [str(m), row[1], row[2], row[3]]:
                    return f"CSV row m={m} disagrees with the Burnside count"
            return None
        doc = json.loads(out)
        if (doc["status"], doc["r"], doc["m_max"], len(doc["rows"])) != ("ok", r, m_max, m_max):
            return "malformed census JSON"
        for m, (got, row) in enumerate(zip(doc["rows"], rows), start=1):
            if (got["m"], got["a_m"], got["pow2"], got["multinomial_bound"]) != (m, *row[1:4]):
                return f"row m={m} disagrees with the Burnside count"
        if e["volumes"] is None:
            return None
        per_m = sum(Fraction(v) for v in e["volumes"].values())
        liminf = min(Fraction(row[0].bit_length() - 1) / (m * per_m) for m, row in enumerate(rows, 1))
        if doc["liminf"] != f"{liminf.numerator}/{liminf.denominator}":
            return f"liminf {doc['liminf']}, expected {liminf}"
        K, V = Fraction(e["K"]), Fraction(e["V"])
        for m, got in enumerate(doc["lcom"], start=1):
            v = m * per_m
            bound = 2 ** (v // K) if v >= V else 1
            if (got["m"], got["volume"], got["lower_bound"]) != (m, f"{v.numerator}/{v.denominator}", str(bound)):
                return f"lcom row m={m} is wrong"
        return None
