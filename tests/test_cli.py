import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hybridcensus import cli, exact_arith, quadform
from hybridcensus.census import theorem_table
from hybridcensus.cli import main
from hybridcensus.exact_arith import Sqrt2Int
from hybridcensus.gluing import (
    CLASS_LIMIT,
    CyclicWord,
    canonical_rotation,
    dihedral_stabilizer,
    enumerate_classes,
    necklace_count,
    same_class,
)
from hybridcensus.quadform import (
    DiagonalForm,
    NoncommCertificate,
    _odd_certificate,
    _witness_at,
    certify_noncommensurable,
    generate_family,
    is_admissible,
    is_anisotropic_certified,
    signatures,
    verify_certificate,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def hostile_document(kind: str) -> dict:
    """A certificate edited so that its rebuild would cost seconds or hundreds
    of MiB.  In the n = 4 certificate of (q_7, q_23), "huge-p" names a
    4,000-digit p = 7 (mod 8) at both places, and "wide" puts forms of
    n = 600 beside the n = 4 witness.  "long-odd-product" puts two admissible
    n = 301 forms of 4,000-digit coefficients, with different tails, beside
    the n = 3 OddDiscWitness of (q_3, q_5): the product of their 604
    coefficients would take tens of seconds."""
    if kind == "long-odd-product":
        big = 10**3999
        last = Sqrt2Int(0, -big)  # negative at the embedding sqrt(2) -> +sqrt(2) only
        forms = [
            DiagonalForm(tuple(Sqrt2Int(big + 2 * i + k) for i in range(301)) + (last,)) for k in (1, 2)
        ]
        doc = certify_noncommensurable(DiagonalForm.standard(3, 3), DiagonalForm.standard(5, 3)).to_json()
        doc.update(n=301, form=forms[0].to_json(), other_form=forms[1].to_json())
        return {"certificate": doc}
    q_7, q_23 = DiagonalForm.standard(7, 4), DiagonalForm.standard(23, 4)
    doc = certify_noncommensurable(q_7, q_23, 4).to_json()
    if kind == "huge-p":
        doc["witness"]["p"] = doc["swapped"]["p"] = 10**3999 + 7
    else:
        wide_7, wide_23 = DiagonalForm.standard(7, 600), DiagonalForm.standard(23, 600)
        doc.update(n=600, form=wide_7.to_json(), other_form=wide_23.to_json())
    return {"certificate": doc}


class TestFormsFamily:
    def test_family_json(self, capsys):
        code, payload, _ = run_json(capsys, "forms", "family", "--n", "4", "--count", "3")
        assert code == 0 and payload["status"] == "ok"
        leads = [int(f["form"]["coeffs"][0]["u"]) for f in payload["forms"]]
        assert leads == [7, 23, 31]
        assert all(f["admissible"] and f["anisotropic"] for f in payload["forms"])

    def test_family_odd(self, capsys):
        code, payload, _ = run_json(capsys, "forms", "family", "--n", "3", "--count", "2")
        assert code == 0
        assert [int(f["form"]["coeffs"][0]["u"]) for f in payload["forms"]] == [2, 3]

    def test_family_csv(self, capsys):
        code, out, _ = run(capsys, "forms", "family", "--n", "4", "--count", "2", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "index,n,a_u,a_v,admissible,anisotropic,sig_plus,sig_minus"
        assert lines[1].startswith("0,4,7,0,true,true")

    def test_usage_error_small_n(self, capsys):
        code, payload, err = run_json(capsys, "forms", "family", "--n", "1", "--count", "2")
        assert code == 2 and payload["status"] == "error"
        assert "n must be >= 2" in err


class TestFormsCertify:
    def test_even_pair(self, capsys):
        code, payload, err = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"
        )
        assert code == 0 and payload["status"] == "ok"
        cert = payload["certificate"]
        assert cert["kind"] == "LocalWitness"
        assert "LocalWitness at p=" in err

    def test_self_pair_no_witness(self, capsys):
        code, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "7"
        )
        assert code == 1 and payload["status"] == "no-witness"

    def test_odd_pair(self, capsys):
        code, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "3", "--a", "3", "--a-prime", "5"
        )
        assert code == 0
        cert = payload["certificate"]
        assert cert["kind"] == "OddDiscWitness"
        assert cert["witness"]["ratio_product"] == {"u": "15", "v": "0"}

    def test_certificate_reverifies(self, capsys):
        _, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "23", "--a-prime", "31"
        )
        cert = NoncommCertificate.from_json(payload["certificate"])
        assert verify_certificate(cert)

    def test_verify_roundtrip(self, capsys, tmp_path):
        _, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"
        )
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, verified, _ = run_json(capsys, "forms", "verify", "--cert", str(path))
        assert code == 0 and verified["valid"] is True

    def test_verify_tampered(self, capsys, tmp_path):
        _, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"
        )
        payload["certificate"]["witness"]["rows"][0]["symbols"][0]["symbol"] *= -1
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, verified, _ = run_json(capsys, "forms", "verify", "--cert", str(path))
        assert code == 2 and verified["status"] == "error"

    def test_negative_budget_is_usage_error(self, capsys):
        code, payload, err = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23",
            "--max-prime", "-5",
        )
        assert code == 2 and payload["status"] == "error"
        assert "max-prime" in err and "Traceback" not in err

    def test_verify_malformed_documents(self, capsys, tmp_path):
        _, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"
        )
        cert = payload["certificate"]
        cases = []
        for value in ("x", ["7"]):
            # a coefficient that is no numeral is named with its field and value
            doc = json.loads(json.dumps(cert))
            doc["form"]["coeffs"][0]["u"] = value
            cases.append((doc, f"field 'u' is not a decimal numeral: {value!r}"))
        del cert["form"]
        cases += [(payload, "KeyError"), ([1, 2], "TypeError"), (5, "TypeError")]
        for i, (doc, detail) in enumerate(cases):
            path = tmp_path / f"bad-{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, verified, err = run_json(capsys, "forms", "verify", "--cert", str(path))
            assert code == 2 and verified["status"] == "error"
            assert verified["message"].startswith("malformed certificate")
            assert detail in verified["message"] and "int()" not in verified["message"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["form"]["coeffs"][0].update(u=7.9),
            lambda c: c["form"]["coeffs"][0].update(u=7),
            lambda c: c.update(n=4.5),
            lambda c: c["witness"].pop("direction"),
            lambda c: c.update(note="hand-edited"),
            lambda c: c.update(swapped={}),
            lambda c: c["witness"]["rows"][0]["symbols"][0].update(symbol=1.0),
            lambda c: c.update(n=4.0),
            lambda c: c["form"].update(n=4.0),
            lambda c: c["witness"]["target"]["invariants"].update(dim=5.0),
            lambda c: c["form"].update(n="4"),
            # the other root of 2 at the witness prime names a genuine place,
            # but certificates record the one LocalPlace.at picks
            lambda c: c["witness"].update(sqrt2_root=c["witness"]["p"] - c["witness"]["sqrt2_root"]),
        ],
        ids=[
            "u-fraction", "u-number", "n-fraction", "no-direction", "extra-key", "empty-swapped",
            "symbol-float", "n-float", "form-n-float", "dim-float", "form-n-string", "other-root",
        ],
    )
    def test_verify_refuses_hand_edits(self, capsys, tmp_path, edit):
        _, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"
        )
        edit(payload["certificate"])
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, verified, err = run_json(capsys, "forms", "verify", "--cert", str(path))
        assert code == 2 and verified["status"] == "error"
        assert "Traceback" not in err

    @pytest.mark.parametrize("number", ["1.0", "1e0", "NaN", "Infinity", "-Infinity"])
    def test_verify_names_a_refused_number(self, capsys, tmp_path, number):
        _, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"
        )
        text = json.dumps(payload).replace('"symbol": 1', f'"symbol": {number}', 1)
        path = tmp_path / "cert.json"
        path.write_text(text, encoding="utf-8")
        code, verified, err = run_json(capsys, "forms", "verify", "--cert", str(path))
        assert code == 2 and verified["message"] == f"certificate numbers are integers, not {number}"
        assert "Traceback" not in err

    def test_verify_place_above_primality_bound(self, capsys, tmp_path, monkeypatch):
        # a true witness at the prime P = 7 (mod 8), above the bound where
        # is_prime is exact, written with primality taken on trust and the
        # bound moved past P
        P = 3317044064679887385962191
        q_big, q_7 = DiagonalForm.standard(P, 4), DiagonalForm.standard(7, 4)
        with monkeypatch.context() as m:
            m.setattr(exact_arith, "is_prime", lambda n: True)
            m.setattr(exact_arith, "_MR_BOUND", P + 1)
            witness = _witness_at(q_big, q_7, P)
        cert = NoncommCertificate("LocalWitness", q_big, q_7, dict(witness, direction="forward"))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"certificate": cert.to_json()}), encoding="utf-8")
        code, verified, _ = run_json(capsys, "forms", "verify", "--cert", str(path))
        assert code == 2 and verified["status"] == "error"

    def test_verify_refuses_pair_across_embeddings(self, capsys, tmp_path):
        # <1, 1, 1, 1 - sqrt2> and its conjugate are hyperbolic at different
        # real embeddings and give one lattice; the discriminant ratio -1 is
        # no square, so the odd witness holds for the forms but is refused
        q = DiagonalForm((Sqrt2Int(1), Sqrt2Int(1), Sqrt2Int(1), Sqrt2Int(1, -1)))
        sigma_q = DiagonalForm(tuple(c.conjugate() for c in q.coeffs))
        cert = _odd_certificate(q, sigma_q)
        assert cert is not None and cert.witness["ratio_product"] == {"u": "-1", "v": "0"}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"certificate": cert.to_json()}), encoding="utf-8")
        code, verified, err = run_json(capsys, "forms", "verify", "--cert", str(path))
        assert code == 2 and verified["status"] == "error"
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["huge-p", "wide", "long-odd-product"])
    def test_hostile_document_ends(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(hostile_document(kind)), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "hybridcensus.cli", "forms", "verify", "--cert", str(path)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
        message = {"message": "certificate did not re-verify", "status": "error"}
        assert done.returncode == 2 and done.stdout == json.dumps(message) + "\n"
        assert "Traceback" not in done.stderr

    def test_wide_document_refused_before_any_table(self, capsys, tmp_path, monkeypatch):
        wide, genuine = tmp_path / "wide.json", tmp_path / "cert.json"
        wide.write_text(json.dumps(hostile_document("wide")), encoding="utf-8")
        q_7, q_23 = DiagonalForm.standard(7, 4), DiagonalForm.standard(23, 4)
        cert = certify_noncommensurable(q_7, q_23, 4)
        genuine.write_text(json.dumps({"certificate": cert.to_json()}), encoding="utf-8")
        calls = []
        table = quadform._table
        monkeypatch.setattr(quadform, "_table", lambda *args: calls.append(1) or table(*args))
        code, verified, _ = run_json(capsys, "forms", "verify", "--cert", str(wide))
        assert code == 2 and verified["status"] == "error" and not calls
        # the counter counts: the genuine certificate rebuilds its ten tables
        code, verified, _ = run_json(capsys, "forms", "verify", "--cert", str(genuine))
        assert code == 0 and verified["valid"] and len(calls) == 10

    def test_huge_budget_ends_at_largest_norm(self):
        # no witness for this pair at any budget; the scan stops at 23^2, so a
        # budget of 10^30 answers as fast as a small one
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        budget = 10**30
        argv = [
            sys.executable, "-m", "hybridcensus.cli", "forms", "certify",
            "--n", "2", "--a", "7", "--a-prime", "23", "--max-prime", str(budget),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1
        assert json.loads(done.stdout) == {
            "a": 7, "a_prime": 23, "max_prime": budget, "n": 2, "status": "no-witness"
        }

    def test_invalid_coefficient(self, capsys):
        code, payload, _ = run_json(
            capsys, "forms", "certify", "--n", "4", "--a", "0", "--a-prime", "7"
        )
        assert code == 2 and payload["status"] == "error"


class TestSignaturesOnce:
    """An op reads each form's signatures in one pass over its coefficients:
    2 * dim `_sign_at_embedding` calls per form, one per real embedding."""

    @staticmethod
    def count_signs(monkeypatch) -> list:
        calls = []
        sign = quadform._sign_at_embedding
        monkeypatch.setattr(quadform, "_sign_at_embedding", lambda *args: calls.append(1) or sign(*args))
        return calls

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["forms", "certify", "--n", "8", "--a", "7", "--a-prime", "23"], 36),  # 2 forms of dim 9
            (["forms", "family", "--n", "3", "--count", "300"], 2400),  # 300 forms of dim 4
            (["forms", "family", "--n", "3", "--count", "300", "--format", "csv"], 2400),
        ],
        ids=["certify", "family-json", "family-csv"],
    )
    def test_one_pass_per_form(self, capsys, monkeypatch, argv, expected):
        calls = self.count_signs(monkeypatch)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == expected

    def test_verify_one_pass_per_form(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cert.json"
        path.write_text(run(capsys, "forms", "certify", "--n", "8", "--a", "7", "--a-prime", "23")[1])
        calls = self.count_signs(monkeypatch)
        assert run(capsys, "forms", "verify", "--cert", str(path))[0] == 0
        assert len(calls) == 36


class TestWords:
    def test_canon(self, capsys):
        code, payload, _ = run_json(capsys, "words", "canon", "--word", "2,1,1")
        assert code == 0
        assert payload["canonical"] == [1, 1, 2] and payload["shift"] == 1

    def test_commensurable_true(self, capsys):
        code, payload, err = run_json(
            capsys, "words", "commensurable", "--alpha", "1,2,2,1", "--beta", "1,1,2,2"
        )
        assert code == 0
        assert payload["commensurable"] is True and payload["shift"] == 3
        assert "p=3" in err

    def test_commensurable_false(self, capsys):
        code, payload, _ = run_json(
            capsys, "words", "commensurable", "--alpha", "1,1,2,2", "--beta", "1,2,1,2"
        )
        assert code == 0
        assert payload["commensurable"] is False and payload["shift"] is None

    def test_length_mismatch(self, capsys):
        code, payload, err = run_json(
            capsys, "words", "commensurable", "--alpha", "1,2", "--beta", "1,2,1"
        )
        assert code == 2 and payload["status"] == "error"
        assert "length mismatch" in err

    def test_malformed_word(self, capsys):
        code, payload, _ = run_json(capsys, "words", "canon", "--word", "2,x,1")
        assert code == 2 and payload["status"] == "error"

    @pytest.mark.parametrize("r", [[], ["--r", "2"]])
    def test_commensurable_malformed_word(self, capsys, r):
        code, payload, _ = run_json(
            capsys, "words", "commensurable", "--alpha", "1,x", "--beta", "1,2", *r
        )
        assert code == 2 and payload == {
            "status": "error",
            "message": "malformed word '1,x': expected comma-separated integers",
        }

    def test_commensurable_alphabet_from_both_words(self, capsys):
        # without --r both words are read over the larger implied alphabet
        code, payload, _ = run_json(
            capsys, "words", "commensurable", "--alpha", "1,1,1", "--beta", "1,3,2"
        )
        assert code == 0 and payload["commensurable"] is False

    def test_stabilizer(self, capsys):
        code, payload, _ = run_json(capsys, "words", "stabilizer", "--word", "2,1,1,1")
        assert code == 0
        assert payload["dihedral_order"] == 2
        assert payload["rotation_order"] == 1 and payload["reflection_exists"] is True

    def test_enumerate(self, capsys):
        code, payload, _ = run_json(capsys, "words", "enumerate", "--r", "2", "--m", "2")
        assert code == 0
        assert payload["count"] == 2
        assert payload["classes"] == [[1, 1, 2, 2], [1, 2, 1, 2]]

    def test_enumerate_cap(self, capsys):
        # the word length is bounded by the recursion depth, not by an option
        code, payload, err = run_json(
            capsys, "words", "enumerate", "--r", "2", "--m", "2", "--cap", "20"
        )
        assert code == 2 and payload == {
            "status": "error",
            "message": "unrecognized arguments: --cap 20",
        }
        assert err.startswith("usage:")

    def test_enumerate_beyond_recursion_depth(self, capsys):
        # half the default recursion limit of 1000
        for r, m in ((1, 501), (2, 251)):
            code, payload, err = run_json(
                capsys, "words", "enumerate", "--r", str(r), "--m", str(m)
            )
            assert code == 2 and payload == {
                "status": "error",
                "message": f"word length r*m = {r * m} exceeds the recursion depth 500",
            }
            assert "Traceback" not in err

    def test_enumerate_past_class_limit_ends(self):
        # 19! classes: refused from the count alone
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "hybridcensus.cli", "words", "enumerate", "--r", "20", "--m", "1"]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert done.stdout.count("\n") == 1
        assert json.loads(done.stdout) == {
            "status": "error",
            "message": f"class limit exceeded: {necklace_count(20, 1)} classes > {CLASS_LIMIT}",
        }
        assert "Traceback" not in done.stderr


# (text, r): multi-digit letters up to 12, and letters past sys.maxunicode,
# which the word searches encode by rank
BIG = sys.maxunicode + 1
WORD_TEXTS = [
    ("10,2,10", 12),
    ("12,1,11,3,12,1,11,3", None),
    (",".join(str(1 + 5 * i % 12) for i in range(60)), 12),
    (" 2, +1,01,2", 3),
    (f"{BIG},5,{BIG + 1},{BIG}", None),
    (f"{BIG},{BIG + 2},{BIG},{BIG + 2}", BIG + 2),
]


def r_option(r):
    return [] if r is None else ["--r", str(r)]


class TestWordsBytes:
    """Each words command prints exactly `json.dumps(payload, sort_keys=True)`
    and a newline, for the payload built here from the library's answers."""

    @staticmethod
    def assert_prints(capsys, payload, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == json.dumps(payload, sort_keys=True) + "\n"

    @pytest.mark.parametrize("text, r", WORD_TEXTS)
    def test_canon(self, capsys, text, r):
        w = CyclicWord.parse(text, r)
        canon, shift = canonical_rotation(w)
        payload = {"status": "ok", "word": w.letters, "canonical": canon.letters, "shift": shift}
        self.assert_prints(capsys, payload, "words", "canon", "--word", text, *r_option(r))

    @pytest.mark.parametrize("text, r", WORD_TEXTS)
    def test_stabilizer(self, capsys, text, r):
        w = CyclicWord.parse(text, r)
        report = dihedral_stabilizer(w)
        payload = {
            "status": "ok",
            "word": w.letters,
            "rotation_order": report.rotation_order,
            "reflection_exists": report.reflection_exists,
            "dihedral_order": report.dihedral_order,
        }
        self.assert_prints(capsys, payload, "words", "stabilizer", "--word", text, *r_option(r))

    @pytest.mark.parametrize("text, r", WORD_TEXTS)
    @pytest.mark.parametrize("partner", ["rotation", "reversal"])
    def test_commensurable(self, capsys, text, r, partner):
        alpha = CyclicWord.parse(text, r)
        beta = alpha.rotate(1) if partner == "rotation" else CyclicWord(alpha.letters[::-1], alpha.r)
        ok, shift = same_class(alpha, beta)
        payload = {
            "status": "ok",
            "alpha": alpha.letters,
            "beta": beta.letters,
            "commensurable": ok,
            "shift": shift,
        }
        argv = ["words", "commensurable", "--alpha", text, "--beta", str(beta), *r_option(r)]
        self.assert_prints(capsys, payload, *argv)

    # (1, 500): one letter recurses as deep as the word, half the default limit
    @pytest.mark.parametrize("r, m", [(1, 1), (1, 12), (1, 500), (2, 2), (3, 4), (5, 2)])
    def test_enumerate(self, capsys, r, m):
        classes = enumerate_classes(r, m)
        payload = {
            "status": "ok",
            "r": r,
            "m": m,
            "count": len(classes),
            "classes": [w.letters for w in classes],
        }
        self.assert_prints(capsys, payload, "words", "enumerate", "--r", str(r), "--m", str(m))


class TestCertifyBytes:
    """forms certify prints exactly `json.dumps(payload, sort_keys=True)` and a
    newline, for the payload built here from the library's certificate, and
    one diagnostic line on stderr."""

    @pytest.mark.parametrize(
        "n, a, a2",
        [
            (3, 3, 5), (3, 7, 2), (4, 7, 23), (4, 31, 7), (8, 7, 23), (8, 31, 23),
            (12, 7, 23), (12, 31, 7),
            (4, 1, 7),  # reverse direction, swapped null
            (4, 7, 1),  # forward, swapped null
        ],
    )
    def test_certificate(self, capsys, n, a, a2):
        cert = certify_noncommensurable(DiagonalForm.standard(a, n), DiagonalForm.standard(a2, n))
        code, out, err = run(
            capsys, "forms", "certify", "--n", str(n), "--a", str(a), "--a-prime", str(a2)
        )
        payload = {"status": "ok", "certificate": cert.to_json()}
        assert code == 0 and out == json.dumps(payload, sort_keys=True) + "\n"
        if cert.kind == "LocalWitness":
            assert err == f"LocalWitness at p={cert.witness['p']}\n"
        else:
            assert err == "OddDiscWitness via nonsquare discriminant ratio\n"

    def test_no_witness(self, capsys):
        code, out, err = run(capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "7")
        payload = {"status": "no-witness", "n": 4, "a": 7, "a_prime": 7, "max_prime": 1000}
        assert code == 1 and out == json.dumps(payload, sort_keys=True) + "\n"
        assert err == "no witness for a=7, a'=7 within prime budget 1000\n"
        # odd n scans no places, so the stderr line names the square discriminant ratio
        code, out, err = run(capsys, "forms", "certify", "--n", "3", "--a", "7", "--a-prime", "7")
        payload = {"status": "no-witness", "n": 3, "a": 7, "a_prime": 7, "max_prime": 1000}
        assert code == 1 and out == json.dumps(payload, sort_keys=True) + "\n"
        assert err == "no witness for a=7, a'=7: the discriminant ratio is a square\n"


class TestCensusBytes:
    """census JSON is exactly `json.dumps(payload, sort_keys=True)` and a
    newline, for the payload built here from `row.to_json()` dicts.  From
    r = 10 the count keys sort as strings: "1", "10", "11", "2", ..."""

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 10, 12])
    @pytest.mark.parametrize("m_max", [0, 1, 7, 64])
    @pytest.mark.parametrize("variant", ["plain", "volumes", "K-V"])
    def test_json(self, capsys, tmp_path, r, m_max, variant):
        argv = ["census", "--r", str(r), "--m-max", str(m_max)]
        volumes = None
        if variant != "plain":
            volumes = {k: Fraction(k % 7 + 1, k % 3 + 1) for k in range(1, r + 1)}
            path = tmp_path / "volumes.json"
            path.write_text(json.dumps({str(k): str(v) for k, v in volumes.items()}))
            argv += ["--volumes", str(path)]
        K, V = Fraction(3, 2), Fraction(7)
        if variant == "K-V":
            argv += ["--K", "3/2", "--V", "7"]
        rows = theorem_table(r, m_max, volumes)
        payload = {"status": "ok", "r": r, "m_max": m_max, "rows": [row.to_json() for row in rows]}
        if volumes and rows:
            totals = [row.volume.numeric_total for row in rows]
            q = min(Fraction(row.exact_count.bit_length() - 1) / t for row, t in zip(rows, totals))
            payload["liminf"] = f"{q.numerator}/{q.denominator}"
            if variant == "K-V":
                payload["lcom"] = [
                    {"m": row.m, "volume": f"{t.numerator}/{t.denominator}",
                     "lower_bound": str(2 ** (t // K) if t >= V else 1)}
                    for row, t in zip(rows, totals)
                ]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == json.dumps(payload, sort_keys=True) + "\n"

    def test_lcom_calls_the_library_once_per_row(self, capsys, tmp_path, monkeypatch):
        # K and V are parsed once, so every call gets the same two objects
        calls = []
        bound = cli.census_mod.lcom_lower_bound
        monkeypatch.setattr(
            cli.census_mod, "lcom_lower_bound", lambda *args: calls.append(args) or bound(*args)
        )
        path = tmp_path / "volumes.json"
        path.write_text('{"1": "1", "2": "3/2"}')
        code, payload, _ = run_json(
            capsys, "census", "--r", "2", "--m-max", "5", "--volumes", str(path), "--K", "2", "--V", "3"
        )
        assert code == 0 and len(payload["lcom"]) == len(calls) == 5
        assert len({id(K) for _, K, _ in calls}) == len({id(V) for _, _, V in calls}) == 1
        assert [v for v, _, _ in calls] == [Fraction(5 * m, 2) for m in range(1, 6)]


# argv whose command parses and leaves arguments over
LEFTOVER_ARGV = [
    ["forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23", "extra"],
    ["forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23", "--bogus", "1"],
    ["forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23", "--", "x"],
    ["words", "canon", "--word", "2,1,1", "x", "y"],
    ["words", "enumerate", "--r", "2", "--m", "2", "--cap", "20"],
    ["census", "--r", "2", "--m-max", "3", "extra"],
]

# argv that reach every level of the grammar: help, upper-level errors,
# arguments a command leaves over, abbreviations and values joined by "="
PARSE_CORPUS = LEFTOVER_ARGV + [
    ["-h"], ["--help"], ["-h", "forms"], ["forms", "-h"], ["forms", "--help"], ["words", "-h"],
    ["forms", "family", "-h"], ["forms", "certify", "--help"], ["forms", "verify", "-h"],
    ["words", "canon", "-h"], ["words", "commensurable", "--help"], ["words", "stabilizer", "-h"],
    ["words", "enumerate", "--help"], ["census", "-h"], ["census", "--r", "2", "--help"],
    ["forms", "certify", "--help", "extra"],
    [], ["forms"], ["words"], ["census"], ["bogus"], ["forms", "bogus"], ["words", "census"],
    ["--", "census", "--r", "2", "--m-max", "1"], ["census", "--", "--r", "2", "--m-max", "1"],
    ["forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"],
    ["forms", "certify", "--n", "4", "--a", "7", "--a-p", "23", "--max=50"],
    ["forms", "certify", "--n=4", "--a=7", "--a-prime=23", "--m", "5"],
    ["forms", "certify", "--n", "4", "--a", "-7", "--a-prime", "23"],
    ["forms", "certify", "--n", "x", "--a", "7", "--a-prime", "23", "extra"],
    ["forms", "family", "--n", "3", "--co", "2", "--f", "csv"],
    ["forms", "family", "--n", "3", "--count", "2", "--format", "xml"],
    ["forms", "verify", "--cert", "no-such-file.json"], ["forms", "verify"],
    ["words", "canon", "--word=-2,-1"], ["words", "canon", "--word", "-2,-1"],
    ["words", "canon", "--word"],
    ["words", "commensurable", "--alpha", "1,2,2,1", "--beta", "1,1,2,2"],
    ["words", "stabilizer", "--word", "2,1,1,1", "--r", "3"],
    ["census", "--format", "csv", "--r", "2", "--m-max", "3"], ["census", "--r", "2"],
]


def top_level_parse(argv):
    """The oracle: the whole argv parsed by the top parser, through every level."""
    return cli._build_parser()[0].parse_args(argv)


class TestParserDispatch:
    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=[" ".join(a) or "<empty>" for a in PARSE_CORPUS])
    def test_same_as_top_level_parse(self, capsys, monkeypatch, argv):
        code, out, err = run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse", top_level_parse)
        if argv in LEFTOVER_ARGV:
            # the command's parser reports the leftover arguments, so its own
            # usage line is printed instead of the top parser's
            words = argv[:1] if argv[0] == "census" else argv[:2]
            assert err.startswith(f"usage: hybrid-census {' '.join(words)} [-h] ")
            assert run(capsys, *argv)[:2] == (code, out)
        else:
            assert run(capsys, *argv) == (code, out, err)

    def test_leaf_parses_alone(self, capsys, monkeypatch):
        # a command line that names a command never reaches the top parser,
        # nor does its usage error
        monkeypatch.setattr(cli._build_parser()[0], "parse_args", None)
        code, payload, _ = run_json(capsys, "census", "--r", "2", "--m-max", "3")
        assert code == 0 and payload["m_max"] == 3
        code, payload, _ = run_json(capsys, "forms", "certify", "--n=3", "--a", "3", "--a-p", "5")
        assert code == 0 and payload["certificate"]["kind"] == "OddDiscWitness"
        for argv in LEFTOVER_ARGV:
            code, payload, _ = run_json(capsys, *argv)
            assert code == 2 and payload["message"].startswith("unrecognized arguments: ")


class TestPayloadBytes:
    """The family, verify and error payloads are exactly
    `json.dumps(payload, sort_keys=True)` and a newline, for the payload built
    here.  The volume-key refusal of an extra piece is pinned in
    `TestCensus.test_volume_key_outside_the_alphabet`."""

    @pytest.mark.parametrize("n", [4, 3])
    def test_family(self, capsys, n):
        forms = generate_family(n, 3)
        entries = [
            {
                "index": i,
                "form": form.to_json(),
                "admissible": is_admissible(signatures(form)),
                "anisotropic": is_anisotropic_certified(signatures(form), form.dim),
                "signatures": list(signatures(form)),
            }
            for i, form in enumerate(forms)
        ]
        code, out, _ = run(capsys, "forms", "family", "--n", str(n), "--count", "3")
        payload = {"status": "ok", "n": n, "forms": entries}
        assert code == 0 and out == json.dumps(payload, sort_keys=True) + "\n"

    @pytest.mark.parametrize("n, a, a2", [(4, 7, 23), (3, 3, 5)])
    def test_verify(self, capsys, tmp_path, n, a, a2):
        cert = certify_noncommensurable(DiagonalForm.standard(a, n), DiagonalForm.standard(a2, n))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"status": "ok", "certificate": cert.to_json()}))
        code, out, err = run(capsys, "forms", "verify", "--cert", str(path))
        payload = {"status": "ok", "valid": True, "kind": cert.kind}
        assert code == 0 and out == json.dumps(payload, sort_keys=True) + "\n"
        assert err == "certificate re-verified from scratch\n"

    def test_usage_error(self, capsys):
        # argparse words the message differently across Python versions, so
        # it is read back from the diagnostic line
        code, out, err = run(capsys, "census", "--r", "2")
        assert code == 2 and err.startswith("usage:")
        message = err.splitlines()[-1].removeprefix("error: ")
        assert "--m-max" in message
        assert out == json.dumps({"status": "error", "message": message}, sort_keys=True) + "\n"


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int-to-str digit limit"
)


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """Run the block under the given int-to-str digit limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def over_limit_message() -> str:
    """The interpreter's own error for str() of an int past the current limit."""
    with pytest.raises(ValueError) as excinfo:
        str(10 ** sys.get_int_max_str_digits())
    return str(excinfo.value)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def line(text: str) -> str:
    """The sha256 of a stdout that is the one line text."""
    return sha256(text + "\n")


# The input files of README's CLI block, and one more that a census pin reads
CLI_FILES = {
    "volumes.json": '{"1": "1", "2": "3/2"}',
    "huge.json": '{"1": "1000000000"}',
    "edge.json": '{"1": "14284"}',
    "vol1.json": '{"1": "3/2"}',
}

# (command line, exit code, sha256 of stdout, file stdout is saved to), run in
# order: every command of README's CLI block, then the other pinned outputs
CLI_PINS = [
    ("forms family --n 4 --count 3", 0, "b049892600e2fb98b131baf15b48add0828b3ce484fad6e1148d5d57cc4a7f41", None),
    ("forms family --n 3 --count 2 --format csv", 0,
     sha256("index,n,a_u,a_v,admissible,anisotropic,sig_plus,sig_minus\n0,3,2,0,true,true,1,0\n1,3,3,0,true,true,1,0\n"),
     None),
    ("forms certify --n 4 --a 7 --a-prime 23", 0,
     "e80252952d80ddd8045ad504642c0b58d41c726e85a0063e4f93f22436a9407f", "cert.json"),
    # an OddDiscWitness, whose witness body goes through json.dumps
    ("forms certify --n 3 --a 3 --a-prime 5", 0, "9cb6ebf17ba9c3d800f25994784b3f7c976d3145c72404c99df7ea7032b7d921", None),
    ("forms certify --n 4 --a 7 --a-prime 7", 1,
     line('{"a": 7, "a_prime": 7, "max_prime": 1000, "n": 4, "status": "no-witness"}'), None),
    ("forms verify --cert cert.json", 0, line('{"kind": "LocalWitness", "status": "ok", "valid": true}'), None),
    ("words canon --word 2,1,1", 0, line('{"canonical": [1, 1, 2], "shift": 1, "status": "ok", "word": [2, 1, 1]}'), None),
    ("words canon --word 10,2,10 --r 12", 0,
     line('{"canonical": [2, 10, 10], "shift": 1, "status": "ok", "word": [10, 2, 10]}'), None),
    ("words commensurable --alpha 1,2,2,1 --beta 1,1,2,2", 0,
     line('{"alpha": [1, 2, 2, 1], "beta": [1, 1, 2, 2], "commensurable": true, "shift": 3, "status": "ok"}'), None),
    ("words stabilizer --word 2,1,1,1", 0,
     line('{"dihedral_order": 2, "reflection_exists": true, "rotation_order": 1, "status": "ok", "word": [2, 1, 1, 1]}'),
     None),
    ("words enumerate --r 2 --m 2", 0,
     line('{"classes": [[1, 1, 2, 2], [1, 2, 1, 2]], "count": 2, "m": 2, "r": 2, "status": "ok"}'), None),
    ("words enumerate --r 20 --m 1", 2,
     line('{"message": "class limit exceeded: 121645100408832000 classes > 1000000", "status": "error"}'), None),
    ("words enumerate --r 2 --m 11", 0, "89c7582d4c04c1faddbd140d653a0198a5652cddc144c135a0bb1c234622b83b", None),
    ("census --r 2 --m-max 8 --format csv", 0, "c337aaa851ffc533447d20f067970f39bc3c842a9ba1638d40bab86e81d799db", None),
    ("census --r 2 --m-max 8 --volumes volumes.json --K 2 --V 1", 0,
     "74382669903cbd95ed98739f337fbf71339c983b9a18cad83ad8861dd538b07e", None),
    ("census --r 1 --m-max 1 --volumes huge.json --K 1 --V 1", 2,
     line('{"message": "lcom bound 2^1000000000 passes the 4300-digit limit", "status": "error"}'), None),
    ("census --r 1 --m-max 1 --volumes edge.json --K 1 --V 1", 0,
     "48dc8be58ad9c69e350f55745a2a268470b37e0ca8dc3cdd8c986858b012e87e", None),
    # both prime walks of generate_family, each in both formats: every prime
    # for odd n, the primes p = 7 (mod 8) for even n
    ("forms family --n 3 --count 300", 0, "2b3f9dc29159147a306664d7fedd84b0205a5b7a6ebe84a93ce2f1531128b867", None),
    ("forms family --n 3 --count 300 --format csv", 0,
     "312ff9d312aa11c3a824f97bc0f14665ebbf0ad9716d003b048901585383b35e", None),
    ("forms family --n 4 --count 300", 0, "ee53d3a78c8645dff317dc805db9839ee537f066df51a84f3a7b7d3ac0ac4108", None),
    ("forms family --n 4 --count 300 --format csv", 0,
     "054821aae306f1e28a5deb12b88fbb837206278b86a980e6ba04b0279d631b95", None),
    # a LocalWitness with larger tables
    ("forms certify --n 8 --a 7 --a-prime 23", 0, "365f073576b31c62c93b8e49a8def455dbfe0b49b3d422427af3863cf0d83bed", None),
    ("forms certify --n 4 --a 7 --a-prime 23 extra", 2,
     line('{"message": "unrecognized arguments: extra", "status": "error"}'), None),
    ("words enumerate --r 2 --m 14", 2,
     line('{"message": "class limit exceeded: 1432860 classes > 1000000", "status": "error"}'), None),
    # with r = 1 the ratios are exactly 1.0 and 2.0
    ("census --r 1 --m-max 1", 0,
     line('{"m_max": 1, "r": 1, "rows": [{"a_m": "1", "asymptotic": "1.000000000e+0", "m": 1, '
          '"multinomial_bound": "1/1", "pow2": "2", "ratio": 1.0, '
          '"volume": {"counts": {"1": 1}, "symbolic": "1*v1"}}], "status": "ok"}'),
     None),
    ("census --r 1 --m-max 2 --volumes vol1.json --K 1 --V 2", 0,
     line('{"lcom": [{"lower_bound": "1", "m": 1, "volume": "3/2"}, {"lower_bound": "8", "m": 2, "volume": "3/1"}], '
          '"liminf": "0/1", "m_max": 2, "r": 1, "rows": [{"a_m": "1", "asymptotic": "1.000000000e+0", "m": 1, '
          '"multinomial_bound": "1/1", "pow2": "2", "ratio": 1.0, '
          '"volume": {"counts": {"1": 1}, "symbolic": "1*v1", "total": "3/2"}}, '
          '{"a_m": "1", "asymptotic": "5.000000000e-1", "m": 2, "multinomial_bound": "1/2", "pow2": "4", '
          '"ratio": 2.0, "volume": {"counts": {"1": 2}, "symbolic": "2*v1", "total": "3/1"}}], "status": "ok"}'),
     None),
    ("census --r 1000000 --m-max 1", 2,
     line('{"message": "r = 1000000: row 1\'s count (r-1)! passes the 4300-digit limit", "status": "error"}'), None),
]


def readme_cli_commands():
    """(command line, file its stdout is saved to or None) for each command
    of README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for shell_line in block.splitlines():
        if shell_line.startswith("hybrid-census "):
            command, _, save = shell_line.split("#")[0].removeprefix("hybrid-census ").partition(">")
            yield command.strip(), save.strip() or None


class TestDocumentedCommands:
    @needs_digit_limit
    def test_exit_codes_and_stdout_bytes(self, capsys, monkeypatch, tmp_path):
        """Every command of README's CLI block, and every other pinned output,
        exits with its code and prints its bytes."""
        pinned = {command: save for command, _, _, save in CLI_PINS}
        for command, save in readme_cli_commands():
            assert command in pinned and save in (None, pinned[command]), command
        monkeypatch.chdir(tmp_path)
        for name, text in CLI_FILES.items():
            Path(name).write_text(text + "\n", encoding="utf-8")
        with int_digit_limit(4300):
            for command, code, digest, save in CLI_PINS:
                got, out, _ = run(capsys, *command.split())
                assert (got, sha256(out)) == (code, digest), command
                if save:
                    Path(save).write_text(out, encoding="utf-8")


class TestCensus:
    def test_rows_match_oracle(self, capsys):
        code, payload, _ = run_json(capsys, "census", "--r", "2", "--m-max", "8")
        assert code == 0
        assert [int(row["a_m"]) for row in payload["rows"]] == [
            necklace_count(2, m) for m in range(1, 9)
        ]

    def test_empty_table(self, capsys):
        code, payload, _ = run_json(capsys, "census", "--r", "2", "--m-max", "0")
        assert code == 0 and payload["rows"] == []

    def test_single_letter(self, capsys):
        code, payload, _ = run_json(capsys, "census", "--r", "1", "--m-max", "6")
        assert code == 0
        assert all(row["a_m"] == "1" for row in payload["rows"])

    def test_csv_format(self, capsys):
        code, out, err = run(capsys, "census", "--r", "2", "--m-max", "4", "--format", "csv")
        assert code == 0
        assert out.split("\n")[0] == "m,a_m,pow2,multinomial_bound,asymptotic,ratio"
        assert "sqrt(r)" in err

    def test_volumes_and_bounds(self, capsys, tmp_path):
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1", "2": "1"}', encoding="utf-8")
        code, payload, _ = run_json(
            capsys,
            "census",
            "--r", "2", "--m-max", "8",
            "--volumes", str(vols),
            "--K", "2", "--V", "1",
        )
        assert code == 0 and "liminf" in payload
        assert payload["rows"][0]["volume"]["total"] == "2/1"
        assert [entry["m"] for entry in payload["lcom"]] == list(range(1, 9))
        assert payload["lcom"][3]["lower_bound"] == str(2 ** 4)

    def test_volumes_not_an_object(self, capsys, tmp_path):
        vols = tmp_path / "volumes.json"
        vols.write_text('["1", "1"]', encoding="utf-8")
        code, payload, _ = run_json(
            capsys, "census", "--r", "2", "--m-max", "4", "--volumes", str(vols)
        )
        assert code == 2 and "JSON object" in payload["message"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--volumes", "VOLS", "--K", "2"], "--K and --V must be given together"),
            (["--volumes", "VOLS", "--V", "1"], "--K and --V must be given together"),
            (["--K", "2"], "--K and --V must be given together"),
            (["--K", "2", "--V", "1"], "--K/--V need --volumes"),
            (
                ["--volumes", "VOLS", "--K", "2", "--V", "1", "--format", "csv"],
                "--K/--V apply only to JSON output",
            ),
            # K and V are checked before the table is built, so an empty
            # table does not hide them
            (
                ["--m-max", "0", "--volumes", "VOLS", "--K", "abc", "--V", "-3"],
                "malformed rational 'abc': expected 'p' or 'p/q'",
            ),
            (
                ["--m-max", "3", "--volumes", "VOLS", "--K", "abc", "--V", "-3"],
                "malformed rational 'abc': expected 'p' or 'p/q'",
            ),
            (["--m-max", "0", "--volumes", "VOLS", "--K", "2", "--V", "-3"], "K and V must be positive"),
        ],
    )
    def test_K_V_contract(self, capsys, tmp_path, extra, message):
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1", "2": "1"}', encoding="utf-8")
        extra = [str(vols) if x == "VOLS" else x for x in extra]
        code, payload, _ = run_json(capsys, "census", "--r", "2", "--m-max", "4", *extra)
        assert code == 2 and payload == {"status": "error", "message": message}

    def test_volume_key_not_a_piece_number(self, capsys, tmp_path):
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1", "2": "1", "x": "1"}', encoding="utf-8")
        code, payload, _ = run_json(
            capsys, "census", "--r", "2", "--m-max", "4", "--volumes", str(vols)
        )
        assert code == 2 and payload == {
            "status": "error",
            "message": f"volume file {vols} has key 'x': expected a piece number",
        }

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"1": "1", "01": "5", "2": "1"}', "01"),
            ('{"01": "5", "1": "1", "2": "1"}', "01"),
            ('{" 1": "5", "1": "1", "2": "1"}', " 1"),
            ('{"1": "1", "2": "1", "+1": "5"}', "+1"),
        ],
    )
    def test_volume_key_alias_refused(self, capsys, tmp_path, text, key):
        # int() reads each of these keys as piece 1; in either order one
        # entry would silently overwrite the other
        vols = tmp_path / "volumes.json"
        vols.write_text(text, encoding="utf-8")
        code, payload, _ = run_json(
            capsys, "census", "--r", "2", "--m-max", "4", "--volumes", str(vols)
        )
        assert code == 2 and payload == {
            "status": "error",
            "message": f"volume file {vols} has key {key!r}: expected a piece number",
        }

    @pytest.mark.parametrize("key", ["0", "-4", "3"])
    def test_volume_key_outside_the_alphabet(self, capsys, tmp_path, key):
        vols = tmp_path / "volumes.json"
        vols.write_text(json.dumps({"1": "1", "2": "3/2", key: "5"}), encoding="utf-8")
        code, out, err = run(capsys, "census", "--r", "2", "--m-max", "1", "--volumes", str(vols))
        message = f"volume file {vols} has key {key!r}: expected a piece number in 1..2"
        assert code == 2 and out == json.dumps({"message": message, "status": "error"}) + "\n"
        assert err == f"error: {message}\n"

    def test_missing_volume_entry(self, capsys, tmp_path):
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1"}', encoding="utf-8")
        code, payload, _ = run_json(
            capsys, "census", "--r", "2", "--m-max", "4", "--volumes", str(vols)
        )
        assert code == 2 and "missing piece 2" in payload["message"]

    @pytest.mark.parametrize(
        "value", ["true", "false", "null", "1.5", "[1]", '{"1": "1"}', "[" * 900 + "]" * 900],
        ids=["true", "false", "null", "float", "array", "object", "nested-900"],
    )
    def test_volume_neither_string_nor_integer(self, tmp_path, value):
        # refused before str(), which would put Python's True, None or a
        # repr of the whole value into the message
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1", "2": %s}' % value, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "hybridcensus.cli", "census", "--r", "2", "--m-max", "4", "--volumes", str(vols)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        message = f"volume file {vols}: piece 2 must be a JSON string or integer"
        assert done.returncode == 2
        assert done.stdout == json.dumps({"message": message, "status": "error"}) + "\n"
        assert "Traceback" not in done.stderr

    def test_volume_strings_and_integers_read_alike(self, capsys, tmp_path):
        outs = []
        for text in ('{"1": "3", "2": "1/2"}', '{"1": 3, "2": "1/2"}'):
            vols = tmp_path / "volumes.json"
            vols.write_text(text, encoding="utf-8")
            code, out, _ = run(capsys, "census", "--r", "2", "--m-max", "4", "--volumes", str(vols))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    # r = 8 rows pass the 4,300-digit limit at m = 598: at m = 597 the longest
    # field has exactly 4,300 digits, and a_598 has 4,305
    @needs_digit_limit
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_last_row_within_limit(self, capsys, fmt):
        with int_digit_limit(4300):
            code, out, _ = run(capsys, "census", "--r", "8", "--m-max", "597", "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert len(json.loads(out)["rows"]) == 597
        else:
            assert out.count("\n") == 598

    @needs_digit_limit
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_first_row_past_limit(self, capsys, fmt):
        with int_digit_limit(4300):
            message = over_limit_message()
            code, out, err = run(capsys, "census", "--r", "8", "--m-max", "598", "--format", fmt)
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"status": "error", "message": message}
        note, error = err.splitlines()
        assert note.startswith("note: asymptotic column is ")
        assert error == f"error: {message}"

    @needs_digit_limit
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_earlier_row_wider_than_last(self, fmt):
        # under a 641-digit limit the last row of the r = 2 table to m = 1071
        # renders, but row 1069's multinomial numerator has 642 digits: the
        # command still exits 2 with the stdout forward rendering gives
        rows = theorem_table(2, 1071)
        with int_digit_limit(641):
            rows[-1].to_json()
            with pytest.raises(ValueError) as excinfo:
                for row in rows:
                    row.to_json()
        expected = json.dumps({"status": "error", "message": str(excinfo.value)}, sort_keys=True)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [
            sys.executable, "-X", "int_max_str_digits=641", "-m", "hybridcensus.cli",
            "census", "--r", "2", "--m-max", "1071", "--format", fmt,
        ]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert done.stdout == expected + "\n"
        assert "Traceback" not in done.stderr


    # under a 641-digit limit, 2^m has more than 641 digits from
    # m = (10**641).bit_length() = 2,130
    @needs_digit_limit
    def test_pow2_past_limit_refused_before_the_table(self, capsys, monkeypatch):
        def no_table(*args):
            raise AssertionError("table built")

        with int_digit_limit(641):
            code, out, _ = run(capsys, "census", "--r", "1", "--m-max", "2129", "--format", "csv")
            assert code == 0 and out.count("\n") == 2130
            monkeypatch.setattr(cli.census_mod, "theorem_table", no_table)
            code, payload, err = run_json(capsys, "census", "--r", "1", "--m-max", "2130")
        message = "m_max = 2130: 2^m_max passes the 641-digit limit"
        assert code == 2 and payload == {"status": "error", "message": message}
        assert err == f"error: {message}\n"

    @needs_digit_limit
    def test_no_digit_limit_no_refusal(self, capsys):
        with int_digit_limit(0):
            code, payload, _ = run_json(capsys, "census", "--r", "1", "--m-max", "3")
            assert code == 0 and len(payload["rows"]) == 3
            code, out, _ = run(capsys, "census", "--r", "642", "--m-max", "1", "--format", "csv")
        assert code == 0 and out.splitlines()[1].startswith(f"1,{math.factorial(641)},")

    @needs_digit_limit
    @pytest.mark.parametrize("r", ["1", "2"])
    def test_huge_m_max_ends(self, r):
        # 10^8 rows would take hours to build, and could never render
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [
            sys.executable, "-X", "int_max_str_digits=4300", "-m", "hybridcensus.cli",
            "census", "--r", r, "--m-max", "100000000",
        ]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 2
        assert done.stdout.count("\n") == 1
        assert json.loads(done.stdout) == {
            "status": "error",
            "message": "m_max = 100000000: 2^m_max passes the 4300-digit limit",
        }
        assert "Traceback" not in done.stderr

    # row 1 holds a_1 = (r-1)!, which from r = limit + 1 is at least
    # limit! > 10**limit; at r = limit the row is built and fails to print
    @needs_digit_limit
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_alphabet_past_limit_refused_before_the_table(self, capsys, monkeypatch, fmt):
        def no_table(*args):
            raise AssertionError("table built")

        with int_digit_limit(641):
            code, payload, _ = run_json(capsys, "census", "--r", "641", "--m-max", "1", "--format", fmt)
            assert code == 2 and payload == {"status": "error", "message": over_limit_message()}
            code, empty, _ = run(capsys, "census", "--r", "642", "--m-max", "0", "--format", fmt)
            assert code == 0 and empty.count("\n") == 1  # the empty table
            monkeypatch.setattr(cli.census_mod, "theorem_table", no_table)
            code, out, err = run(capsys, "census", "--r", "642", "--m-max", "1", "--format", fmt)
        message = "r = 642: row 1's count (r-1)! passes the 641-digit limit"
        assert code == 2 and out == json.dumps({"message": message, "status": "error"}) + "\n"
        assert err == f"error: {message}\n"

    @needs_digit_limit
    @pytest.mark.parametrize("r", ["4301", "4000000"])
    def test_huge_alphabet_ends(self, r):
        # row 1 of r = 4,000,000 would take over a minute to build, and could never print
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [
            sys.executable, "-X", "int_max_str_digits=4300", "-m", "hybridcensus.cli",
            "census", "--r", r, "--m-max", "1",
        ]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
        message = f"r = {r}: row 1's count (r-1)! passes the 4300-digit limit"
        assert done.returncode == 2
        assert done.stdout == json.dumps({"message": message, "status": "error"}) + "\n"
        assert done.stderr == f"error: {message}\n"

    # the last row's lcom bound is 2^floor(v/K) with v = m_max * (v1 + ... + vr);
    # it has more than 4,300 digits from v/K = (10**4300).bit_length() = 14,285
    @needs_digit_limit
    def test_lcom_bound_past_limit_refused_before_the_table(self, capsys, monkeypatch, tmp_path):
        def no_table(*args):
            raise AssertionError("table built")

        within, past = tmp_path / "within.json", tmp_path / "past.json"
        within.write_text('{"1": "14284"}', encoding="utf-8")
        past.write_text('{"1": "14285"}', encoding="utf-8")
        flags = ("census", "--r", "1", "--m-max", "1", "--K", "1", "--V", "1", "--volumes")
        with int_digit_limit(4300):
            code, payload, _ = run_json(capsys, *flags, str(within))
            assert code == 0 and payload["lcom"][0]["lower_bound"] == str(2**14284)
            monkeypatch.setattr(cli.census_mod, "theorem_table", no_table)
            code, out, err = run(capsys, *flags, str(past))
        message = "lcom bound 2^14285 passes the 4300-digit limit"
        assert code == 2 and out == json.dumps({"message": message, "status": "error"}) + "\n"
        assert err == f"error: {message}\n"

    @needs_digit_limit
    def test_lcom_bound_from_the_last_row(self, capsys, tmp_path):
        # m_max = 2 and v1 + v2 = 7142.5: only the last row's volume, 14,285,
        # passes the limit, and it reaches the threshold V exactly
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "7142", "2": "1/2"}', encoding="utf-8")
        with int_digit_limit(4300):
            code, payload, _ = run_json(
                capsys, "census", "--r", "2", "--m-max", "2", "--volumes", str(vols),
                "--K", "1", "--V", "14285",
            )
        message = "lcom bound 2^14285 passes the 4300-digit limit"
        assert code == 2 and payload == {"status": "error", "message": message}

    @needs_digit_limit
    def test_unprintable_lcom_exponent_named_by_bit_length(self, capsys, tmp_path):
        # v/K = (10^4299 - 1) * 10^4298 has 8,597 digits, so the exponent
        # itself cannot print under the limit
        vols = tmp_path / "volumes.json"
        vols.write_text(json.dumps({"1": "9" * 4299}), encoding="utf-8")
        with int_digit_limit(4300):
            code, out, err = run(
                capsys, "census", "--r", "1", "--m-max", "1", "--volumes", str(vols),
                "--K", "1/1" + "0" * 4298, "--V", "1",
            )
        exponent = (10**4299 - 1) * 10**4298
        message = f"lcom bound 2^e, e of {exponent.bit_length()} bits, passes the 4300-digit limit"
        assert exponent.bit_length() == 28559
        assert code == 2 and out == json.dumps({"message": message, "status": "error"}) + "\n"
        assert err == f"error: {message}\n"

    @needs_digit_limit
    def test_lcom_threshold_above_the_last_volume_not_refused(self, capsys, tmp_path):
        # V above every row's volume makes every bound 1
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1000000000"}', encoding="utf-8")
        with int_digit_limit(4300):
            code, payload, _ = run_json(
                capsys, "census", "--r", "1", "--m-max", "2", "--volumes", str(vols),
                "--K", "1", "--V", "2000000001",
            )
        assert code == 0
        assert [entry["lower_bound"] for entry in payload["lcom"]] == ["1", "1"]

    @needs_digit_limit
    def test_huge_lcom_bound_ends(self, tmp_path):
        # 2^(10^9) would take a 125 MB integer, and could never print
        vols = tmp_path / "huge.json"
        vols.write_text('{"1": "1000000000"}', encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [
            sys.executable, "-X", "int_max_str_digits=4300", "-m", "hybridcensus.cli",
            "census", "--r", "1", "--m-max", "1", "--volumes", str(vols), "--K", "1", "--V", "1",
        ]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 2
        assert done.stdout.count("\n") == 1
        assert json.loads(done.stdout) == {
            "status": "error",
            "message": "lcom bound 2^1000000000 passes the 4300-digit limit",
        }
        assert "Traceback" not in done.stderr


class TestHarness:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["forms", "certify", "--n", "x", "--a", "7", "--a-prime", "23"],
            ["census", "--r", "2"],
            ["bogus"],
            [],
            ["words", "canon", "--word"],
            ["forms", "family", "--n", "4", "--count", "2", "--format", "xml"],
            # argparse reads a value starting with "-" as an option, so the
            # word needs --word=-2,-1
            ["words", "canon", "--word", "-2,-1"],
        ],
        ids=[
            "bad-int", "missing-option", "unknown-command", "empty", "missing-value", "bad-choice",
            "negative-first-letter",
        ],
    )
    def test_usage_error_is_one_json_line(self, capsys, argv):
        # argparse words its messages differently across Python versions,
        # so only the exit code and the status are checked
        code, out, err = run(capsys, *argv)
        assert code == 2 and out.count("\n") == 1
        assert json.loads(out)["status"] == "error"
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["forms", "certify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("usage:")

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "census", "--r", "2", "--m-max", "16")
        _, out2, _ = run(capsys, "census", "--r", "2", "--m-max", "16")
        assert out1 == out2
        _, fam1, _ = run(capsys, "forms", "family", "--n", "4", "--count", "5")
        _, fam2, _ = run(capsys, "forms", "family", "--n", "4", "--count", "5")
        assert fam1 == fam2

    def test_payload_is_single_json_line(self, capsys):
        _, out, _ = run(capsys, "words", "canon", "--word", "1,2")
        assert out.count("\n") == 1
        json.loads(out)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["forms", "certify", "--n", "1", "--a", "7", "--a-prime", "23"],
             "hyperbolic dimension n must be >= 2"),
            (["census", "--r", "0", "--m-max", "4"], "alphabet size r must be >= 1"),
            (["census", "--r", "2", "--m-max", "-1"], "m_max must be >= 0"),
            # with no --r the alphabet comes from the word, so the letter is named
            (["words", "canon", "--word", "0"], "letter 0 outside alphabet [1, 1]"),
            (["words", "stabilizer", "--word=-2,-1"], "letter -2 outside alphabet [1, 1]"),
            (["words", "canon", "--word", "0", "--r", "0"], "alphabet size r must be >= 1"),
        ],
    )
    def test_library_argument_errors_exit_2(self, capsys, argv, message):
        code, payload, err = run_json(capsys, *argv)
        assert code == 2 and payload == {"status": "error", "message": message}
        assert "Traceback" not in err

    def test_usage_error_leaves_no_state(self, capsys):
        argv = ["words", "canon", "--word", "2,1,1,3,2,1"]
        _, alone, _ = run(capsys, *argv)
        for bad in (
            ["words", "canon", "--word"],
            ["words", "canon", "--word", "1,2", "--r", "x"],
            ["census", "--r", "2", "--m-max", "x"],
            ["bogus"],
        ):
            assert main(bad) == 2
            capsys.readouterr()
        _, after, _ = run(capsys, *argv)
        assert after == alone
        # an option given on one call is not a default on the next
        run(capsys, "words", "canon", "--word", "2,1,1,3,2,1", "--r", "5")
        _, again, _ = run(capsys, *argv)
        assert again == alone

    def test_parser_built_once_per_import(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        importlib.reload(cli)
        assert built == []  # importing builds no parser
        assert cli.main(["words", "canon", "--word", "1,2"]) == 0
        assert built
        first = len(built)
        assert cli.main(["census", "--r", "2", "--m-max", "3"]) == 0
        assert len(built) == first
        capsys.readouterr()

    # past the program's own bound only (101, 500), past the decoder's limit
    # on 3.11 and 3.12 but not 3.13 (5,000), and past it on 3.13 as well
    # (100,000): the message is the same on every interpreter
    @pytest.mark.parametrize("depth", [cli._MAX_JSON_DEPTH + 1, 500, 5_000, 100_000])
    @pytest.mark.parametrize(
        "command",
        [["forms", "verify", "--cert"], ["census", "--r", "2", "--m-max", "3", "--volumes"]],
        ids=["verify", "census"],
    )
    def test_deeply_nested_json_is_an_error(self, tmp_path, command, depth):
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "hybridcensus.cli", *command, str(path)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert json.loads(done.stdout) == {
            "message": f"{path}: JSON nested too deeply", "status": "error"
        }
        assert done.stdout.count("\n") == 1
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "command, message",
        [
            (["forms", "verify", "--cert"], "malformed certificate: TypeError: "),
            (["census", "--r", "2", "--m-max", "3", "--volumes"], "volume file "),
        ],
        ids=["verify", "census"],
    )
    def test_nesting_at_the_bound_meets_the_shape_check(self, capsys, tmp_path, command, message):
        path = tmp_path / "deep.json"
        depth = cli._MAX_JSON_DEPTH
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        code, payload, _ = run_json(capsys, *command, str(path))
        assert code == 2 and payload["message"].startswith(message)

    def test_nesting_checked_only_after_a_shape_check_fails(self, capsys, tmp_path, monkeypatch):
        _, payload, _ = run_json(capsys, "forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23")
        walked = []
        monkeypatch.setattr(cli, "_refuse_deep", lambda doc, path: walked.append(path))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, "forms", "verify", "--cert", str(path))[0] == 0
        payload["certificate"]["witness"]["rows"][0]["symbols"][0]["symbol"] *= -1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, "forms", "verify", "--cert", str(path))[0] == 2
        assert walked == []  # a tampered certificate that parses cleanly is not walked
        payload["certificate"]["n"] = "4"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(capsys, "forms", "verify", "--cert", str(path))[0] == 2
        assert walked == [str(path)]

    def test_stdout_closed_early_exits_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "hybridcensus.cli", "words", "enumerate", "--r", "2", "--m", "10"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            # the payload is far larger than a pipe buffer, so the write meets the closed pipe
            assert proc.stdout.read(5) == b'{"cla'
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        assert code == 0
        assert "Traceback" not in err
