import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hybridcensus import cli, exact_arith
from hybridcensus.cli import main
from hybridcensus.gluing import necklace_count
from hybridcensus.quadform import DiagonalForm, NoncommCertificate, _witness_at, verify_certificate


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
        code, payload, _ = run_json(capsys, "words", "enumerate", "--r", "3", "--m", "7")
        assert code == 2 and "cap" in payload["message"]

    def test_enumerate_beyond_recursion_depth(self, capsys):
        code, payload, err = run_json(
            capsys, "words", "enumerate", "--r", "2", "--m", "600", "--cap", "2000"
        )
        assert code == 2 and "recursion depth" in payload["message"]
        assert "Traceback" not in err


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

    def test_missing_volume_entry(self, capsys, tmp_path):
        vols = tmp_path / "volumes.json"
        vols.write_text('{"1": "1"}', encoding="utf-8")
        code, payload, _ = run_json(
            capsys, "census", "--r", "2", "--m-max", "4", "--volumes", str(vols)
        )
        assert code == 2 and "missing piece 2" in payload["message"]


class TestHarness:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

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
