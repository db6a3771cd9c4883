"""Command-line entry point.

Commands:
  algebra   construct the algebra and print dimensions, grading, generators
  bracket   print one generator-pair lambda-bracket
  verify    replay a scripted weak-generation derivation (big or small flavor)
  closure   run the bounded closure search from a chosen seed set
  axioms    sweep skew-symmetry, Jacobi, and the conformal-action checks

Exit codes: 0 success; 2 bad input (malformed flags, invalid partition,
unknown generator); 3 verification failure (derivation or closure left
generators missing); 4 axiom violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction

from . import serialize as ser
from .errors import WAlgebraError
from .liestruct import AlgebraCtx, PartitionSpec, build_algebra
from .pvacore import check_jacobi, check_skew
from .wbracket import bracket_table, conformal_check
from .weakgen import (ClosureCaps, closure_search, default_caps,
                      reduced_rectangular_seeds, scripted_verify, weak_set)

F = Fraction


# every field of a RunConfig after `command`, with its default
_RUN_DEFAULTS = {
    "kind": "sl",
    "partition": (),
    "partition2": (),
    "flavor": "big",
    "seed": "big",
    "ktilde": "one",       # "one" | "symbolic"
    "format": "text",      # "text" | "json"
    "output": None,
    "max_weight": None,
    "max_n": None,
    "max_elements": None,
    "gens": (),            # bracket command: the two generator specs
}


class RunConfig(namedtuple("RunConfig", ["command", *_RUN_DEFAULTS],
                           defaults=tuple(_RUN_DEFAULTS.values()))):
    """Everything one invocation needs, after flag/config-file merging; the
    caps max_weight (a Fraction), max_n and max_elements are None or
    positive."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for cap in (self.max_n, self.max_elements):
            if cap is not None and cap <= 0:
                raise WAlgebraError("caps must be positive")
        if self.max_weight is not None and self.max_weight <= 0:
            raise WAlgebraError("caps must be positive")
        return self


def _parse_partition(text) -> tuple:
    """A config-file list, or digit runs between commas ('1_0', '+3' refused)."""
    try:
        if isinstance(text, (list, tuple)):
            if any(isinstance(x, (bool, float)) for x in text):
                raise ValueError(text)
            return tuple(int(x) for x in text)
        parts = [p.strip() for p in str(text).split(",")] if str(text).strip() else []
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(text)
        return tuple(int(p) for p in parts)
    except (TypeError, ValueError):
        raise WAlgebraError(f"partition must be comma-separated integers: {text!r}")


def _parse_cap(name: str, val) -> int | None:
    if val is not None and (isinstance(val, bool) or not isinstance(val, int)):
        raise WAlgebraError(f"{name} must be a positive integer: {val!r}")
    return val


def _parse_weight(val) -> Fraction | None:
    if val is None:
        return None
    try:
        return F(str(val))
    except (ValueError, ZeroDivisionError):
        raise WAlgebraError(f"max_weight must be a rational number: {val!r}")


def _parse_gen_spec(text: str) -> tuple:
    """'t,i,j' with t an integer or fraction like 5/2."""
    parts = text.split(",")
    if len(parts) != 3:
        raise WAlgebraError(f"generator must be weight,row,col: {text!r}")
    try:
        return (F(parts[0]), int(parts[1]), int(parts[2]))
    except (ValueError, ZeroDivisionError):
        raise WAlgebraError(f"generator must be weight,row,col: {text!r}")


def _load_config_file(path: str) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WAlgebraError(f"config file {path} is not UTF-8: {exc.reason} at byte {exc.start}")
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise WAlgebraError(
                "TOML config files need Python 3.11+ (tomllib); "
                "use a JSON config on this interpreter")
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise WAlgebraError(f"config file {path} is not valid TOML: {exc}")
    data = json.loads(text)
    if not isinstance(data, dict):
        raise WAlgebraError(f"config file {path} must hold a JSON object")
    return data


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="walgebra",
        description="Exact workbench for classical affine W-algebras: "
                    "lambda-brackets, weak-generation replays, closure searches.")
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kind", choices=["sl", "sl-super"], default=None,
                        help="algebra family (default sl)")
    common.add_argument("--partition", default=None,
                        help="comma-separated non-increasing row sizes, e.g. 3,2")
    common.add_argument("--partition2", default=None,
                        help="second partition (sl-super only)")
    common.add_argument("--ktilde", choices=["one", "symbolic"], default=None,
                        help="level mode: fixed at 1 (default) or symbolic "
                             "for level-dependence/genericity reporting")
    common.add_argument("--format", choices=["text", "json"], default=None,
                        help="report format (default text)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--config", default=None, metavar="FILE",
                        help="JSON (or TOML, Python 3.11+) file whose keys "
                             "mirror the long flags; flags win on conflict")

    sub.add_parser("algebra", parents=[common],
                   help="dimensions, grading histogram, generator table")

    pb = sub.add_parser("bracket", parents=[common],
                        help="one generator-pair lambda-bracket")
    pb.add_argument("left", help="generator as weight,row,col (e.g. 2,1,1 or 3/2,1,2)")
    pb.add_argument("right", help="generator as weight,row,col")

    pv = sub.add_parser("verify", parents=[common],
                        help="replay the scripted weak-generation derivation")
    pv.add_argument("--flavor", choices=["big", "small"], default=None,
                    help="which weak set to derive from (default big)")

    pc = sub.add_parser("closure", parents=[common],
                        help="bounded closure search from a seed set")
    pc.add_argument("--seed", default=None,
                    choices=["big", "small", "none", "rect-big", "rect-small"],
                    help="seed set: a weak set, nothing, or the rectangular "
                         "reduced presets (default big)")
    pc.add_argument("--max-weight", default=None,
                    help="weight cap (default: tallest block + 2)")
    pc.add_argument("--max-n", type=int, default=None,
                    help="n-th-product cap (default: twice the weight cap)")
    pc.add_argument("--max-elements", type=int, default=None,
                    help="pool size cap (default: 4x generator count + 16)")

    sub.add_parser("axioms", parents=[common],
                   help="skew + Jacobi sweep and conformal-action check")
    return top


def _command_flags(command: str) -> dict:
    """dest -> choices (None for a free value) of every long flag that
    `command` takes, read from the parser itself."""
    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.choices for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _check_config(command: str, merged: dict) -> None:
    """A config file may set only the command's own flags, and a
    choice-valued flag only to one of its choices."""
    flags = _command_flags(command)
    for key, val in merged.items():
        if key not in flags:
            raise WAlgebraError(f"unknown config key for {command}: {key!r}")
        choices = flags[key]
        if choices is not None and val not in choices:
            raise WAlgebraError(
                f"config key {key!r} must be one of {', '.join(choices)}: {val!r}")
    # open() would take an integer as a file descriptor
    if "output" in merged and not isinstance(merged["output"], str):
        raise WAlgebraError(f"config key 'output' must be a path: {merged['output']!r}")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
        _check_config(args.command, merged)

    def pick(flag: str):
        val = getattr(args, flag, None)
        if val is None:
            val = merged.get(flag, _RUN_DEFAULTS[flag])
        return val

    return RunConfig(
        command=args.command,
        kind=pick("kind").replace("-", "_"),
        partition=_parse_partition(pick("partition")),
        partition2=_parse_partition(pick("partition2")),
        flavor=pick("flavor"),
        seed=pick("seed"),
        ktilde=pick("ktilde"),
        format=pick("format"),
        output=pick("output"),
        max_weight=_parse_weight(pick("max_weight")),
        max_n=_parse_cap("max_n", pick("max_n")),
        max_elements=_parse_cap("max_elements", pick("max_elements")),
        gens=((_parse_gen_spec(args.left), _parse_gen_spec(args.right))
              if args.command == "bracket" else ()),
    )


def _context(cfg: RunConfig) -> AlgebraCtx:
    return build_algebra(PartitionSpec(cfg.kind, cfg.partition, cfg.partition2))


def _table(ctx: AlgebraCtx, cfg: RunConfig):
    return bracket_table(ctx, ktilde="symbolic" if cfg.ktilde == "symbolic" else 1)


def _emit(cfg: RunConfig, text: str, payload: dict) -> None:
    body = json.dumps(payload, indent=2) if cfg.format == "json" else text
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
        first = text.splitlines()[0] if text else ""
        print(f"{first}  [report written to {cfg.output}]")
    else:
        print(body)


# ---------------------------------------------------------------------------
# commands


def cmd_algebra(cfg: RunConfig) -> int:
    ctx = _context(cfg)
    summ = ser.algebra_summary(ctx)
    lines = [
        f"{cfg.kind.replace('_', '-')} partition {summ['partition']}"
        + (f" | {summ['partition2']}" if summ["partition2"] else ""),
        f"matrix size {summ['matrix_size']}, dimension {summ['dimension']}",
        f"generators: {summ['num_generators']}",
        "grading histogram (ad-x degree: count):",
    ]
    for h in summ["grading"]:
        deg = F(int(h["degree"]["num"]), int(h["degree"]["den"]))
        lines.append(f"  {deg}: {h['count']}")
    lines.append("generator table (weight, row block, col block, parity):")
    for g in summ["generators"]:
        w = F(int(g["weight"]["num"]), int(g["weight"]["den"]))
        i, j = g["gen"][2], g["gen"][3]
        par = "odd" if g["parity"] else "even"
        lines.append(f"  q[{w}]({i},{j})  weight {w}  {par}")
    _emit(cfg, "\n".join(lines), summ)
    return 0


def cmd_bracket(cfg: RunConfig) -> int:
    ctx = _context(cfg)
    table = _table(ctx, cfg)
    (ta, ia, ja), (tb, ib, jb) = cfg.gens
    a = ser.gen_from_json(ctx, [ta.numerator, ta.denominator, ia, ja])
    b = ser.gen_from_json(ctx, [tb.numerator, tb.denominator, ib, jb])
    lp = table.lookup(a, b)
    lines = [f"{{{a} lambda {b}}} =", repr(lp)]
    payload = {
        "left": ser.gen_to_json(a),
        "right": ser.gen_to_json(b),
        "bracket": ser.lambda_poly_to_json(lp),
    }
    _emit(cfg, "\n".join(lines), payload)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    ctx = _context(cfg)
    rep = scripted_verify(ctx, ctx.centralizer(), _table(ctx, cfg), cfg.flavor)
    _emit(cfg, rep.summary(), ser.derivation_report_to_json(rep))
    return 0 if rep.ok else 3


def _seeds_for(ctx: AlgebraCtx, cfg: RunConfig) -> list:
    if cfg.seed == "none":
        return []
    if cfg.seed in ("big", "small"):
        return weak_set(ctx, cfg.seed)
    return reduced_rectangular_seeds(ctx, cfg.seed.split("-", 1)[1])


def cmd_closure(cfg: RunConfig) -> int:
    ctx = _context(cfg)
    base = default_caps(ctx)
    caps = ClosureCaps(
        cfg.max_weight if cfg.max_weight is not None else base.max_weight,
        cfg.max_n if cfg.max_n is not None else base.max_n,
        cfg.max_elements if cfg.max_elements is not None else base.max_elements,
    )
    rep = closure_search(ctx, ctx.centralizer(), _table(ctx, cfg),
                         _seeds_for(ctx, cfg), caps)
    _emit(cfg, rep.summary(), ser.closure_report_to_json(rep))
    return 0 if rep.complete else 3


def cmd_axioms(cfg: RunConfig) -> int:
    ctx = _context(cfg)
    table = _table(ctx, cfg)
    gens = ctx.centralizer().gens
    skew = check_skew(table)
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    jac = check_jacobi(table, triples)
    conf = conformal_check(ctx, bracket_table(ctx, ktilde=1))
    parity = sum(v["kind"] == "parity" for v in skew)
    rep = {
        "skew_violations": len(skew),
        "parity_violations": parity,
        "jacobi_violations": len(jac),
        "pairs_checked": len(table.entries),
        "triples_checked": len(triples),
        "conformal_ok": conf["ok"],
        "central_coeff": conf["central"],
    }
    text = (f"skew: {len(skew)} violations over {rep['pairs_checked']} pairs"
            f"{f' ({parity} of parity)' if parity else ''}\n"
            f"jacobi: {len(jac)} violations over {len(triples)} triples\n"
            f"conformal action: {'ok' if conf['ok'] else 'FAILED'} "
            f"(central lambda^3 coefficient {conf['central']})")
    first = (skew + jac)[:3]
    if first:
        rep["first_failures"] = first
        for v in first:
            where, what = v.get("pair") or v["triple"], v.get("terms") or v["diff"]
            text += f"\n{v['kind']} violation at ({', '.join(map(str, where))}): {what!r}"
    _emit(cfg, text, ser.axiom_report_to_json(rep))
    return 0 if not skew and not jac and conf["ok"] else 4


_COMMANDS = {
    "algebra": cmd_algebra,
    "bracket": cmd_bracket,
    "verify": cmd_verify,
    "closure": cmd_closure,
    "axioms": cmd_axioms,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except WAlgebraError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
