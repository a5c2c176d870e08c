"""Command-line front end.

Commands emit a single machine-readable payload (JSON, or CSV where
supported) on stdout; human diagnostics go to stderr.  Exit codes:
0 success or witness found, 1 no witness within budget, 2 usage or
parse error.  Each handler returns (exit code, stdout text): CSV, or one
JSON object from `_json_object`, which also writes the error payload; `main`
writes that text as it is.  A command line that starts with a command's
words (`forms certify`, `census`, ...) is parsed by that command's own
parser, which argparse would reach through every level above it; any
other goes through the top parser.
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
        if not 1 <= piece <= r:
            raise ValueError(f"volume file {path} has key {k!r}: expected a piece number in 1..{r}")
        volumes[piece] = _parse_fraction(str(v))
    for k in range(1, r + 1):
        if k not in volumes:
            raise ValueError(f"volume file {path} is missing piece {k}")
        if volumes[k] <= 0:
            raise ValueError(f"piece volume v{k} must be positive")
    return volumes


_dumps = json.JSONEncoder(sort_keys=True).encode  # json.dumps(v, sort_keys=True)


class _Names(dict):
    """Decimal strings of ints, each made on its first lookup."""

    def __missing__(self, x: int) -> str:
        self[x] = name = str(x)
        return name


def _json_object(values: dict, **texts: str) -> str:
    """`json.dumps(payload, sort_keys=True) + "\n"`, for the payload that holds
    the plain values in values and the values whose JSON texts are in texts.

    A census table's rows run to megabytes, so a text is copied once, by the
    one join; each plain value goes through `json.dumps(v, sort_keys=True)`.
    """
    parts = []
    for k, v in sorted(({k: _dumps(v) for k, v in values.items()} | texts).items()):
        parts += [", ", _dumps(k), ": ", v]
    parts[:1] = ["{"]  # the first separator, if any, becomes the brace
    parts.append("}\n")
    return "".join(parts)


def _words_json(values: dict, **words: tuple | list) -> str:
    """`_json_object(values, ...)` with the words given as keywords, each
    a word (a tuple of letters) or a list of words.

    `json.dumps` converts every letter of a word to decimal; here each
    distinct letter is converted once, into a table the words are joined
    from.
    """
    names = _Names()

    def word(w: tuple[int, ...]) -> str:
        return "[" + ", ".join(map(names.__getitem__, w)) + "]"

    def text(v: tuple | list) -> str:
        return word(v) if isinstance(v, tuple) else "[" + ", ".join(map(word, v)) + "]"

    return _json_object(values, **{k: text(v) for k, v in words.items()})


# ---------------------------------------------------------------- handlers


def _cmd_forms_family(args: argparse.Namespace) -> tuple[int, str]:
    rows = []  # (form, signatures, admissible, anisotropic), each computed once
    for form in quadform.generate_family(args.n, args.count):
        sig = quadform.signatures(form)
        rows.append((form, sig, quadform.is_admissible(sig), quadform.is_anisotropic_certified(sig, form.dim)))
    if args.format == "csv":
        lines = ["index,n,a_u,a_v,admissible,anisotropic,sig_plus,sig_minus"]
        for idx, (form, (neg_plus, neg_minus), admissible, anisotropic) in enumerate(rows):
            a = form.coeffs[0]
            lines.append(
                f"{idx},{args.n},{a.u},{a.v},{str(admissible).lower()},"
                f"{str(anisotropic).lower()},{neg_plus},{neg_minus}"
            )
        return 0, "\n".join(lines) + "\n"
    entries = [
        {
            "index": idx,
            "form": form.to_json(),
            "admissible": admissible,
            "anisotropic": anisotropic,
            "signatures": list(sig),
        }
        for idx, (form, sig, admissible, anisotropic) in enumerate(rows)
    ]
    return 0, _json_object({"status": "ok", "n": args.n, "forms": entries})


def _cmd_forms_certify(args: argparse.Namespace) -> tuple[int, str]:
    if args.a < 1 or args.a_prime < 1:
        raise ValueError("leading coefficients must be positive integers")
    if args.max_prime < 0:
        raise ValueError("max-prime must be >= 0")
    q_a = quadform.DiagonalForm.standard(args.a, args.n)
    q_a2 = quadform.DiagonalForm.standard(args.a_prime, args.n)
    cert = quadform.certify_noncommensurable(q_a, q_a2, args.n, args.max_prime)
    if cert is None:
        _diag(f"no witness for a={args.a}, a'={args.a_prime} within prime budget {args.max_prime}")
        return 1, _json_object(
            {
                "status": "no-witness",
                "n": args.n,
                "a": args.a,
                "a_prime": args.a_prime,
                "max_prime": args.max_prime,
            }
        )
    if cert.kind == "LocalWitness":
        _diag(f"LocalWitness at p={cert.witness['p']}")
    else:
        _diag("OddDiscWitness via nonsquare discriminant ratio")
    return 0, _json_object({"status": "ok"}, certificate=cert.json_text())


def _refuse_non_integer(text: str) -> NoReturn:
    raise ValueError(f"certificate numbers are integers, not {text}")


def _cmd_forms_verify(args: argparse.Namespace) -> tuple[int, str]:
    doc = _load_json(args.cert, parse_float=_refuse_non_integer, parse_constant=_refuse_non_integer)
    if isinstance(doc, dict) and "certificate" in doc:
        doc = doc["certificate"]
    cert = quadform.NoncommCertificate.from_json(doc)
    if quadform.verify_certificate(cert):
        _diag("certificate re-verified from scratch")
        return 0, _json_object({"status": "ok", "valid": True, "kind": cert.kind})
    raise ValueError("certificate did not re-verify")


def _cmd_words_canon(args: argparse.Namespace) -> tuple[int, str]:
    w = gluing.CyclicWord.parse(args.word, args.r)
    canon, shift = gluing.canonical_rotation(w)
    return 0, _words_json(
        {"status": "ok", "shift": shift}, word=w.letters, canonical=canon.letters
    )


def _cmd_words_commensurable(args: argparse.Namespace) -> tuple[int, str]:
    texts, r = (args.alpha, args.beta), args.r
    if r is None:  # read both words over the larger implied alphabet
        r = max(gluing.CyclicWord.parse(text).r for text in texts)
    alpha, beta = (gluing.CyclicWord.parse(text, r) for text in texts)
    ok, shift = gluing.same_class(alpha, beta)
    if ok:
        _diag(f"same rotation orbit, witness shift p={shift}")
    return 0, _words_json(
        {"status": "ok", "commensurable": ok, "shift": shift},
        alpha=alpha.letters,
        beta=beta.letters,
    )


def _cmd_words_stabilizer(args: argparse.Namespace) -> tuple[int, str]:
    w = gluing.CyclicWord.parse(args.word, args.r)
    report = gluing.dihedral_stabilizer(w)
    return 0, _words_json(
        {
            "status": "ok",
            "rotation_order": report.rotation_order,
            "reflection_exists": report.reflection_exists,
            "dihedral_order": report.dihedral_order,
        },
        word=w.letters,
    )


def _cmd_words_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    classes = gluing.enumerate_classes(args.r, args.m)
    return 0, _words_json(
        {"status": "ok", "r": args.r, "m": args.m, "count": len(classes)},
        classes=[w.letters for w in classes],
    )


def _cmd_census(args: argparse.Namespace) -> tuple[int, str]:
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
    _refuse_unprintable_pow2(args.m_max, "m_max = {e}: 2^m_max")
    limit = _digit_limit()
    if limit and args.r > limit and args.m_max >= 1:  # (r-1)! >= limit! > 10**limit
        raise ValueError(f"r = {args.r}: row 1's count (r-1)! passes the {limit}-digit limit")
    if args.K is not None:
        # the bounds grow with the volume, so the last row's is the largest
        v = args.m_max * sum(volumes.values())
        if v >= V:
            _refuse_unprintable_pow2(v // K, "lcom bound 2^{e}")
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
    values = {"status": "ok", "r": args.r, "m_max": args.m_max}
    texts = {"rows": census_mod.table_to_json(rows)}
    if liminf is not None:
        values["liminf"] = f"{liminf.numerator}/{liminf.denominator}"
        if args.K is not None:
            texts["lcom"] = "[" + ", ".join(_lcom_entry(row, K, V) for row in rows) + "]"
    return 0, _json_object(values, **texts)


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit, or 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _refuse_unprintable_pow2(e: int, name: str) -> None:
    """Refuse a 2^e that could never print under the interpreter's int-to-str
    digit limit, naming it by name with e put in; with no limit, refuse
    nothing.

    2^e passes the limit from e = (10**limit).bit_length(), which exceeds
    3 * limit, so a small e is let through without building 10**limit.  An
    e that passes the limit itself is put in by its bit length.
    """
    limit = _digit_limit()
    if limit and e > 3 * limit:
        ceiling = 10**limit
        if e >= ceiling.bit_length():
            shown = e if e < ceiling else f"e, e of {e.bit_length()} bits,"
            raise ValueError(f"{name.format(e=shown)} passes the {limit}-digit limit")


def _lcom_entry(row: census_mod.CensusRow, K: Fraction, V: Fraction) -> str:
    """The JSON text of one row's `lcom` entry; K and V are parsed once per table."""
    total = row.volume.numeric_total
    bound = census_mod.lcom_lower_bound(total, K, V)
    return (
        f'{{"lower_bound": "{bound}", "m": {row.m}, '
        f'"volume": "{total.numerator}/{total.denominator}"}}'
    )


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so that `main` answers
    them like any other bad input: exit 2 and one JSON error on stdout.
    Subparsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ValueError(message)


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The command grammar and its leaf parsers by command words, such as
    ("forms", "certify") or ("census",); built on the first `main` call and
    reused, since argparse keeps no state between `parse_args` calls."""
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

    leaves = {("census",): census}
    for word, action in (("forms", forms_sub), ("words", words_sub)):
        leaves |= {(word, name): leaf for name, leaf in action.choices.items()}
    return parser, leaves


def _parse(argv: list[str]) -> argparse.Namespace:
    """`parse_args(argv)` of the top parser.

    Nested subparsers pass every argument after the command words to the
    leaf parser untouched, so when argv starts with a leaf's command words
    the leaf parses the rest itself.  Anything else (help or an error at an
    upper level, or arguments a leaf leaves over) goes through the top
    parser, which prints the same usage and message as always.
    """
    parser, leaves = _build_parser()
    for words in (argv[:1], argv[:2]):
        leaf = leaves.get(tuple(words))
        if leaf is not None:
            args, extras = leaf.parse_known_args(argv[len(words) :])
            return parser.parse_args(argv) if extras else args
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code, text = args.handler(args)
    except SystemExit as exc:  # --help; a usage error raises ValueError
        return int(exc.code or 0)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _diag(f"error: {exc}")
        code, text = 2, _json_object({"status": "error", "message": str(exc)})
    try:
        sys.stdout.write(text)
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
