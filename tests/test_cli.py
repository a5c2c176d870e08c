import argparse
import contextlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hybridcensus import cli, exact_arith
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
    verify_certificate,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


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
        ],
        ids=[
            "u-fraction", "u-number", "n-fraction", "no-direction", "extra-key", "empty-swapped",
            "symbol-float", "n-float", "form-n-float", "dim-float", "form-n-string",
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
        # is_prime is exact, written with primality taken on trust
        P = 3317044064679887385962191
        q_big, q_7 = DiagonalForm.standard(P, 4), DiagonalForm.standard(7, 4)
        with monkeypatch.context() as m:
            m.setattr(exact_arith, "is_prime", lambda n: True)
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

    def test_missing_volume_entry(self, capsys, tmp_path):
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1"}', encoding="utf-8")
        code, payload, _ = run_json(
            capsys, "census", "--r", "2", "--m-max", "4", "--volumes", str(vols)
        )
        assert code == 2 and "missing piece 2" in payload["message"]

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

    @needs_digit_limit
    @pytest.mark.parametrize("r", ["1", "2"])
    def test_huge_m_max_ends(self, r):
        # 10^8 rows would take hours to build, and could never render
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [
            sys.executable, "-X", "int_max_str_digits=4300", "-m", "hybridcensus.cli",
            "census", "--r", r, "--m-max", "100000000",
        ]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert done.stdout.count("\n") == 1
        assert json.loads(done.stdout) == {
            "status": "error",
            "message": "m_max = 100000000: 2^m_max passes the 4300-digit limit",
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

    @pytest.mark.parametrize("depth", [5_000, 100_000])
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
