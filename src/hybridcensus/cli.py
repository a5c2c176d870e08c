"""Command-line front end.

Commands emit a single machine-readable payload (JSON, or CSV where
supported) on stdout; human diagnostics go to stderr.  Exit codes:
0 success or witness found, 1 no witness within budget, 2 usage or
parse error.  Each handler returns (exit code, payload); `main` writes a
str payload (CSV, or the words commands' JSON, see `_words_json`) as it
is and prints any other payload as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import NoReturn, Optional

from . import census as census_mod
from . import gluing, quadform

__all__ = ["entry", "main"]


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")


def _load_json(path: str, **options) -> object:
    """The JSON document in the file at path.  A document nested past the
    interpreter's recursion limit is a ValueError, like any other bad file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, **options)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_volumes(path: str, r: int) -> dict[int, Fraction]:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"volume file {path} must hold a JSON object of piece volumes")
    volumes = {}
    for k, v in raw.items():
        try:
            piece = int(k)
            if str(piece) != k:  # "01", " 1" and "+1" would overwrite piece 1
                raise ValueError
        except ValueError:
            raise ValueError(f"volume file {path} has key {k!r}: expected a piece number") from None
        volumes[piece] = _parse_fraction(str(v))
    for k in range(1, r + 1):
        if k not in volumes:
            raise ValueError(f"volume file {path} is missing piece {k}")
        if volumes[k] <= 0:
            raise ValueError(f"piece volume v{k} must be positive")
    return volumes


class _Names(dict):
    """Decimal strings of ints, each made on its first lookup."""

    def __missing__(self, x: int) -> str:
        self[x] = name = str(x)
        return name


def _words_json(payload: dict) -> str:
    """`json.dumps(payload, sort_keys=True) + "\n"`, for a payload whose tuple
    values are words and whose list values are lists of words.

    `json.dumps` converts every letter of a word to decimal; here each
    distinct letter is converted once, into a table the words are joined
    from.  Keys and the other values still go through `json.dumps`.
    """
    names = _Names()

    def word(w: tuple[int, ...]) -> str:
        return "[" + ", ".join(map(names.__getitem__, w)) + "]"

    def value(v: object) -> str:
        if isinstance(v, tuple):
            return word(v)
        if isinstance(v, list):
            return "[" + ", ".join(map(word, v)) + "]"
        return json.dumps(v)

    fields = (f"{json.dumps(k)}: {value(v)}" for k, v in sorted(payload.items()))
    return "{" + ", ".join(fields) + "}\n"


# ---------------------------------------------------------------- handlers


def _cmd_forms_family(args: argparse.Namespace) -> tuple[int, object]:
    forms = quadform.generate_family(args.n, args.count)
    entries = []
    for idx, form in enumerate(forms):
        sig = quadform.signatures(form)
        entries.append(
            {
                "index": idx,
                "form": form.to_json(),
                "admissible": quadform.is_admissible(form),
                "anisotropic": quadform.is_anisotropic_certified(form),
                "signatures": list(sig),
            }
        )
    if args.format == "csv":
        lines = ["index,n,a_u,a_v,admissible,anisotropic,sig_plus,sig_minus"]
        for e in entries:
            a = e["form"]["coeffs"][0]
            lines.append(
                f"{e['index']},{args.n},{a['u']},{a['v']},"
                f"{str(e['admissible']).lower()},{str(e['anisotropic']).lower()},"
                f"{e['signatures'][0]},{e['signatures'][1]}"
            )
        return 0, "\n".join(lines) + "\n"
    return 0, {"status": "ok", "n": args.n, "forms": entries}


def _cmd_forms_certify(args: argparse.Namespace) -> tuple[int, object]:
    if args.a < 1 or args.a_prime < 1:
        raise ValueError("leading coefficients must be positive integers")
    if args.max_prime < 0:
        raise ValueError("max-prime must be >= 0")
    q_a = quadform.DiagonalForm.standard(args.a, args.n)
    q_a2 = quadform.DiagonalForm.standard(args.a_prime, args.n)
    cert = quadform.certify_noncommensurable(q_a, q_a2, args.n, args.max_prime)
    if cert is None:
        _diag(f"no witness for a={args.a}, a'={args.a_prime} within prime budget {args.max_prime}")
        return 1, {
            "status": "no-witness",
            "n": args.n,
            "a": args.a,
            "a_prime": args.a_prime,
            "max_prime": args.max_prime,
        }
    if cert.kind == "LocalWitness":
        _diag(f"LocalWitness at p={cert.witness['p']}")
    else:
        _diag("OddDiscWitness via nonsquare discriminant ratio")
    return 0, {"status": "ok", "certificate": cert.to_json()}


def _refuse_non_integer(text: str) -> NoReturn:
    raise ValueError(f"certificate numbers are integers, not {text}")


def _cmd_forms_verify(args: argparse.Namespace) -> tuple[int, object]:
    doc = _load_json(args.cert, parse_float=_refuse_non_integer, parse_constant=_refuse_non_integer)
    if isinstance(doc, dict) and "certificate" in doc:
        doc = doc["certificate"]
    cert = quadform.NoncommCertificate.from_json(doc)
    if quadform.verify_certificate(cert):
        _diag("certificate re-verified from scratch")
        return 0, {"status": "ok", "valid": True, "kind": cert.kind}
    raise ValueError("certificate did not re-verify")


def _cmd_words_canon(args: argparse.Namespace) -> tuple[int, object]:
    w = gluing.CyclicWord.parse(args.word, args.r)
    canon, shift = gluing.canonical_rotation(w)
    return 0, _words_json(
        {"status": "ok", "word": w.letters, "canonical": canon.letters, "shift": shift}
    )


def _cmd_words_commensurable(args: argparse.Namespace) -> tuple[int, object]:
    texts, r = (args.alpha, args.beta), args.r
    if r is None:  # read both words over the larger implied alphabet
        r = max(gluing.CyclicWord.parse(text).r for text in texts)
    alpha, beta = (gluing.CyclicWord.parse(text, r) for text in texts)
    ok, shift = gluing.same_class(alpha, beta)
    if ok:
        _diag(f"same rotation orbit, witness shift p={shift}")
    return 0, _words_json(
        {
            "status": "ok",
            "alpha": alpha.letters,
            "beta": beta.letters,
            "commensurable": ok,
            "shift": shift,
        }
    )


def _cmd_words_stabilizer(args: argparse.Namespace) -> tuple[int, object]:
    w = gluing.CyclicWord.parse(args.word, args.r)
    report = gluing.dihedral_stabilizer(w)
    return 0, _words_json(
        {
            "status": "ok",
            "word": w.letters,
            "rotation_order": report.rotation_order,
            "reflection_exists": report.reflection_exists,
            "dihedral_order": report.dihedral_order,
        }
    )


def _cmd_words_enumerate(args: argparse.Namespace) -> tuple[int, object]:
    classes = gluing.enumerate_classes(args.r, args.m)
    return 0, _words_json(
        {
            "status": "ok",
            "r": args.r,
            "m": args.m,
            "count": len(classes),
            "classes": [w.letters for w in classes],
        }
    )


def _cmd_census(args: argparse.Namespace) -> tuple[int, object]:
    if args.K is not None or args.V is not None:
        if args.K is None or args.V is None:
            raise ValueError("--K and --V must be given together")
        if not args.volumes:
            raise ValueError("--K/--V need --volumes")
        if args.format == "csv":
            raise ValueError("--K/--V apply only to JSON output")
        K, V = _parse_fraction(args.K), _parse_fraction(args.V)
        if K <= 0 or V <= 0:
            raise ValueError("K and V must be positive")
    volumes = _load_volumes(args.volumes, args.r) if args.volumes else None
    # 2^m passes the digit limit from m = (10**limit).bit_length(), which exceeds 3 * limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.m_max > 3 * limit and args.m_max >= (10**limit).bit_length():
        raise ValueError(f"m_max = {args.m_max}: 2^m_max passes the {limit}-digit limit")
    rows = census_mod.theorem_table(args.r, args.m_max, volumes)
    _diag(
        "note: asymptotic column is m^-1 (2*pi*m)^-((r-1)/2) r^(rm-1); "
        "exact counts run a factor sqrt(r) above it (see ratio column)"
    )
    liminf = census_mod.liminf_check(rows) if volumes and rows else None
    if args.format == "csv":
        if liminf is not None:
            _diag(f"liminf quotient: {liminf}")
        return 0, census_mod.table_to_csv(rows)
    payload: dict = {
        "status": "ok",
        "r": args.r,
        "m_max": args.m_max,
        "rows": census_mod.table_to_json(rows),
    }
    if liminf is not None:
        payload["liminf"] = f"{liminf.numerator}/{liminf.denominator}"
        if args.K is not None:
            payload["lcom"] = [
                {
                    "m": row.m,
                    "volume": doc["volume"]["total"],
                    "lower_bound": str(
                        census_mod.lcom_lower_bound(row.volume.numeric_total, K, V)
                    ),
                }
                for row, doc in zip(rows, payload["rows"])
            ]
    return 0, payload


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so that `main` answers
    them like any other bad input: exit 2 and one JSON error on stdout.
    Subparsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ValueError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command grammar, built on the first `main` call and reused: argparse
    keeps no state between `parse_args` calls."""
    parser = _Parser(
        prog="hybrid-census",
        description="Exact certificates for form noncommensurability, cyclic gluing "
        "words, and equal-volume census tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forms = sub.add_parser("forms", help="quadratic-form families and certificates")
    forms_sub = forms.add_subparsers(dest="subcommand", required=True)

    family = forms_sub.add_parser("family", help="generate the standard family")
    family.add_argument("--n", type=int, required=True, help="hyperbolic dimension (>= 2)")
    family.add_argument("--count", type=int, required=True, help="number of forms")
    family.add_argument("--format", choices=("json", "csv"), default="json")
    family.set_defaults(handler=_cmd_forms_family)

    certify = forms_sub.add_parser("certify", help="certify two family forms noncommensurable")
    certify.add_argument("--n", type=int, required=True)
    certify.add_argument("--a", type=int, required=True, help="leading coefficient of the first form")
    certify.add_argument("--a-prime", type=int, required=True, dest="a_prime")
    certify.add_argument("--max-prime", type=int, default=1000, dest="max_prime")
    certify.set_defaults(handler=_cmd_forms_certify)

    verify = forms_sub.add_parser("verify", help="re-verify a certificate file from scratch")
    verify.add_argument("--cert", required=True, help="path to a certificate JSON file")
    verify.set_defaults(handler=_cmd_forms_verify)

    words = sub.add_parser("words", help="cyclic gluing words")
    words_sub = words.add_subparsers(dest="subcommand", required=True)

    canon = words_sub.add_parser("canon", help="canonical rotation of a word")
    canon.add_argument("--word", required=True, help='comma-separated letters, e.g. "2,1,1"')
    canon.add_argument("--r", type=int, default=None, help="alphabet size (default: largest letter)")
    canon.set_defaults(handler=_cmd_words_canon)

    comm = words_sub.add_parser("commensurable", help="rotation-orbit test with witness shift")
    comm.add_argument("--alpha", required=True)
    comm.add_argument("--beta", required=True)
    comm.add_argument("--r", type=int, default=None)
    comm.set_defaults(handler=_cmd_words_commensurable)

    stab = words_sub.add_parser("stabilizer", help="dihedral stabilizer of a word")
    stab.add_argument("--word", required=True)
    stab.add_argument("--r", type=int, default=None)
    stab.set_defaults(handler=_cmd_words_stabilizer)

    enum = words_sub.add_parser("enumerate", help="canonical class representatives, fixed content")
    enum.add_argument("--r", type=int, required=True)
    enum.add_argument("--m", type=int, required=True)
    enum.set_defaults(handler=_cmd_words_enumerate)

    census = sub.add_parser("census", help="exact count table with bounds and asymptotics")
    census.add_argument("--r", type=int, required=True)
    census.add_argument("--m-max", type=int, required=True, dest="m_max")
    census.add_argument("--volumes", default=None, help='JSON file {"1": "p/q", ...}')
    census.add_argument("--K", default=None, help="volume-per-step constant, as p/q")
    census.add_argument("--V", default=None, help="volume threshold, as p/q")
    census.add_argument("--format", choices=("json", "csv"), default="json")
    census.set_defaults(handler=_cmd_census)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, payload = args.handler(args)
    except SystemExit as exc:  # --help; a usage error raises ValueError
        return int(exc.code or 0)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _diag(f"error: {exc}")
        code, payload = 2, {"status": "error", "message": str(exc)}
    try:
        if isinstance(payload, str):
            sys.stdout.write(payload)
        else:
            print(json.dumps(payload, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
