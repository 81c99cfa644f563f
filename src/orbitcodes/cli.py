"""Command-line interface: classification, verification, bounds and searches.

Exit codes: 0 success, 2 argument/parse errors and output files that cannot
be written, 3 domain validation errors,
4 resource-budget exhaustion, 5 verification mismatches (a computed value
contradicts a claim or an internal cross-check).

Each command imports the modules it uses when it runs, so a call loads only
what its command needs: verify, dualize, bound and spread never load the
orbit census or the construction modules.
"""

from __future__ import annotations

import argparse
import sys

from .errors import OrbitCodesError, ParseError, ResourceLimit, VerificationFailed

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_MISMATCH = 5

# classify runs that span more vectors than this need --extended.  Each
# candidate is a span of q^k vectors, so the work is candidates x q^k: over
# F_2 all of n <= 9 stays ungated (at most 6.4M, at n=9, k=5), as do n=10 at
# k <= 3 and k >= 8 (at most 11.1M, at k=8), while n=10 at k = 4..7 (12.6M
# and up) is gated.
EXTENDED_THRESHOLD = 12_000_000


def _field_from_args(args):
    from .gfext import make_field
    return make_field(args.q, args.n, args.poly)


def _budget_from_args(args):
    """The RunBudget of --budget-sec, or None without it; 0 is zero seconds."""
    from .orbits import RunBudget
    if args.budget_sec is None:
        return None
    if not args.budget_sec >= 0:        # NaN compares false too
        raise ParseError(f"--budget-sec {args.budget_sec} is not a number of seconds >= 0")
    return RunBudget(max_seconds=args.budget_sec)


def _emit(args, payload: dict, text: str):
    """Print payload through records.write_json under --format json, else text."""
    if args.format == "json":
        from .records import write_json
        write_json(sys.stdout.write, payload)
        print()
    else:
        print(text)


# -- classify ---------------------------------------------------------------------


def _render_census(table) -> str:
    lines = [f"census q={table.q} n={table.n} k={table.k} m={table.m}"]
    full = table.full_length
    for ln in table.lengths():
        tag = "full-length" if ln == full else "degenerate"
        row = "  ".join(f"d={d}:{c}" for d, c in
                        sorted(table.by_distance(length=ln).items()))
        lines.append(f"  length {ln} ({tag}): {row}")
    lines.append(f"  orbits {table.total_orbits()}, mass {table.mass} = "
                 f"[{table.n} choose {table.k}]_{table.q} OK")
    if table.diffs:
        lines.append("  diff vs published table:")
        for d in table.diffs:
            lines.append(f"    {d['table']} k={d['k']} d={d['d']}: "
                         f"published {d['reference']}, computed {d['computed']}")
    else:
        lines.append("  diff vs published table: none")
    return "\n".join(lines)


def _census_payload(table) -> dict:
    return {
        "q": table.q, "n": table.n, "k": table.k, "m": table.m,
        "counts": [{"length": ln, "min_dist": d, "orbits": c}
                   for (ln, d), c in sorted(table.counts.items())],
        "orbits": table.total_orbits(),
        "mass": table.mass,
        "mass_ok": table.mass == table.expected_mass,
        "diffs": table.diffs,
    }


def cmd_classify(args) -> int:
    from .orbits import Checkpoint, candidate_count, classify, enumerate_orbits, write_orbit_db
    field = _field_from_args(args)
    candidates = candidate_count(field, args.k)
    # k > n has no candidates, and its q^k is not worth computing
    work = candidates * args.q ** args.k if candidates else 0
    if work > EXTENDED_THRESHOLD and not args.extended:
        raise ResourceLimit(
            f"{candidates} candidate subspaces of {args.q ** args.k} vectors "
            f"each; pass --extended to run (and --checkpoint to make the run "
            f"resumable)")
    checkpoint = Checkpoint(args.checkpoint) if args.checkpoint else None
    table = classify(field, args.k, args.m, budget=_budget_from_args(args),
                     checkpoint=checkpoint)
    if args.db:
        n = write_orbit_db(enumerate_orbits(field, args.k, args.m), args.db)
        print(f"wrote {n} orbits to {args.db}", file=sys.stderr)
    if args.format == "csv":
        print("k,d,length,count")
        for (ln, d), c in sorted(table.counts.items()):
            print(f"{args.k},{d},{ln},{c}")
    else:
        _emit(args, _census_payload(table), _render_census(table))
    return EXIT_OK


# -- file commands ------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .codes import verify_code_file
    report = verify_code_file(args.file)
    dims = report["dims"]
    if len(dims) == 1:
        params = [report["field"]["n"], dims[0], report["size"], report["min_dist"]]
    else:
        params = [report["field"]["n"], report["size"], report["min_dist"]]
    line = str(params) + (" OK" if report["matches_claim"] else "")
    if report.get("optimal"):
        line += ", meets bound with equality (optimal)"
    elif report.get("bound") is not None:
        line += f", bound {report['bound']}"
    _emit(args, report, "\n".join([line] + [f"note: {note}" for note in report["notes"]]))
    if report["matches_claim"] is False:
        print("error: the computed parameters contradict the claim", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_dualize(args) -> int:
    from .codes import code_from_generators, dualize, dump_code_file, is_cyclic, load_code_file
    cf = load_code_file(args.file)
    code = code_from_generators(cf.field, cf.m, cf.generators)
    dual = dualize(code)
    # the dual holds each word as a one-word orbit under m = q^n - 1, and its
    # file says so: each word its own generator under that m
    words = sorted(dual.bitsets)
    out = args.output or (args.file + ".dual.json")
    dump_code_file(out, cf.field, dual.m, words)
    print(f"wrote {len(words)} dual words to {out}", file=sys.stderr)
    payload = {"size": dual.size, "dims": list(dual.dims), "cyclic": is_cyclic(dual)}
    _emit(args, payload, f"dual code: size {payload['size']}, dims {payload['dims']}, "
                         f"cyclic: {payload['cyclic']}")
    return EXIT_OK


def cmd_bound(args) -> int:
    from .codes import etzion_vardy_bound
    print(etzion_vardy_bound(args.n, args.d, args.k, args.q))
    return EXIT_OK


def cmd_spread(args) -> int:
    from .codes import dump_code_file, spread_code
    field = _field_from_args(args)
    code = spread_code(field, args.t)
    gen = min(code.bitsets)
    out = args.output or f"spread_n{args.n}t{args.t}q{args.q}.json"
    n, k, size, d = code.params()
    dump_code_file(out, field, 1, [gen],
                   {"n": n, "k": k, "size": size, "d": d})
    print(f"[{n},{k},{size},{d}] spread written to {out}")
    return EXIT_OK


# -- graph / clique ------------------------------------------------------------------


def cmd_graph(args) -> int:
    from .construct import build_graph, write_dimacs
    from .orbits import read_orbit_db
    orbits = read_orbit_db(args.db)
    G = build_graph(orbits, args.d)
    out = args.output or (args.db + f".d{args.d}.dimacs")
    write_dimacs(G, out)
    print(f"graph: {G.n_vertices} vertices ({len(G.excluded)} orbits excluded "
          f"below d={args.d}) written to {out}")
    return EXIT_OK


def cmd_clique(args) -> int:
    from .construct import CompatGraph, assemble_code, build_graph, find_cliques, read_dimacs
    from .orbits import read_orbit_db
    if not (args.db or args.graph):
        raise ParseError("clique needs --graph or --db")
    if args.db and args.graph:
        raise ParseError("clique takes --graph or --db, not both")
    if args.graph and args.d is not None:
        raise ParseError("--d applies only with --db; a DIMACS graph has no threshold")
    if args.mode == "exact" and args.seed is not None:
        raise ParseError("--seed applies only to --mode greedy")
    budget = _budget_from_args(args)
    if args.db:
        orbits = read_orbit_db(args.db)
        G = build_graph(orbits, 4 if args.d is None else args.d)
    else:
        _, adj = read_dimacs(args.graph)
        G = adj
    results = find_cliques(G, budget, mode=args.mode, seed=args.seed or 0)
    best = results[0]
    payload = {"mode": args.mode, "size": best.size, "certified": best.certified,
               "vertices": list(best.vertices)}
    # an empty clique, from a graph with no vertex, assembles no code
    if isinstance(G, CompatGraph) and best.size:
        code = assemble_code(G, best)
        payload["params"] = list(code.params())
        payload["representatives"] = [sorted(G.orbits[i].rep.exponents)
                                      for i in best.vertices]
    line = f"clique size {best.size} ({'certified' if best.certified else 'heuristic'})"
    if "params" in payload:
        line += f", code {payload['params']}"
    _emit(args, payload, line)
    return EXIT_OK


# -- self-dual / conjecture -----------------------------------------------------------


def cmd_selfdual(args) -> int:
    from .construct import self_dual_search
    from .records import write_json
    from .subspace import exponents_of
    field = _field_from_args(args)
    hits = self_dual_search(field)
    primary, others = [], []
    for h in hits:
        (primary if h.constant_dimension and h.single_generator else others).append(h)
    if args.format == "json":
        # each hit's item is built, written and dropped in turn
        write_json(sys.stdout.write, {
            "q": args.q, "n": args.n,
            "constant_dimension_single_generator": (
                {"m": h.m, "params": h.params(), "words": map(exponents_of, h.words)}
                for h in primary),
            "other_minimal": (
                {"m": h.m, "size": h.size, "dims": h.dims, "orbit_count": h.orbit_count,
                 "constant_dimension": h.constant_dimension}
                for h in others),
        })
        print()
    else:
        print(f"self-dual quasi-cyclic codes in P_{args.q}({args.n}):")
        for h in primary:
            print(f"  m={h.m}: {list(h.params())} (single-generator, "
                  f"constant dimension)")
        print(f"  plus {len(others)} further minimal self-dual quasi-cyclic "
              f"codes (mixed-dimension or multi-orbit)")
    return EXIT_OK


def cmd_conjecture_check(args) -> int:
    from .orbits import conjecture_check
    field = _field_from_args(args)
    verdict = conjecture_check(field, args.k, budget=_budget_from_args(args))
    payload = {"n": verdict.n, "k": verdict.k, "applicable": verdict.applicable,
               "target_distance": verdict.target_distance,
               "satisfied": verdict.satisfied,
               "full_length_orbits_at_target": verdict.full_length_count_at_target}
    _emit(args, payload,
          f"n={verdict.n} k={verdict.k}: full-length orbit with d >= "
          f"{verdict.target_distance}: {'yes' if verdict.satisfied else 'NO'} "
          f"({verdict.full_length_count_at_target} such orbits"
          f"{'' if verdict.applicable else '; statement not posed for this k'})")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------------


# each subcommand takes only the options it reads


def _field_args(sp, k=False):
    sp.add_argument("--q", type=int, default=2, help="field characteristic")
    sp.add_argument("--n", type=int, required=True, help="extension degree")
    sp.add_argument("--poly", help="primitive polynomial, e.g. 'x^4+x+1' or '1,1,0,0,1'")
    if k:
        sp.add_argument("--k", type=int, required=True, help="subspace dimension")


def _format_arg(sp, *choices):
    sp.add_argument("--format", choices=("text", "json") + choices, default="text")


def _budget_arg(sp):
    sp.add_argument("--budget-sec", type=float, help="wall-clock limit in seconds on the "
                    "census walk; a census it stops exits 4")


def _classify_args(sp):
    _field_args(sp, k=True)
    sp.add_argument("--m", type=int, default=1, help="quasi-cyclic shift modulus")
    _format_arg(sp, "csv")
    _budget_arg(sp)
    sp.add_argument("--db", help="write the orbit database (JSON lines) here")
    sp.add_argument("--extended", action="store_true",
                    help="allow long enumerations (n=10 scale)")
    sp.add_argument("--checkpoint", help="checkpoint file for resumable runs")


def _verify_args(sp):
    sp.add_argument("file")
    _format_arg(sp)


def _dualize_args(sp):
    sp.add_argument("file")
    sp.add_argument("-o", "--output")
    _format_arg(sp)


def _bound_args(sp):
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)


def _spread_args(sp):
    _field_args(sp)
    sp.add_argument("--t", type=int, required=True, help="subfield degree (t | n)")
    sp.add_argument("-o", "--output")


def _graph_args(sp):
    sp.add_argument("--db", required=True)
    sp.add_argument("--d", type=int, required=True, help="distance threshold")
    sp.add_argument("-o", "--output")


def _clique_args(sp):
    sp.add_argument("--graph", help="DIMACS graph file")
    sp.add_argument("--db", help="orbit db (builds the graph, enables code assembly)")
    sp.add_argument("--d", type=int, help="threshold when using --db")
    sp.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    sp.add_argument("--budget-sec", type=float,
                    help="wall-clock limit on the search; a search it stops is not certified")
    sp.add_argument("--seed", type=int)
    _format_arg(sp)


def _selfdual_args(sp):
    _field_args(sp)
    _format_arg(sp)


def _conjecture_check_args(sp):
    _field_args(sp, k=True)
    _format_arg(sp)
    _budget_arg(sp)


# name -> (help, the function adding its arguments, the function running it)
COMMANDS = {
    "classify": ("census of m-quasi orbits of G_q(n,k)", _classify_args, cmd_classify),
    "verify": ("verify a code file against its claim", _verify_args, cmd_verify),
    "dualize": ("write the dual of a code file", _dualize_args, cmd_dualize),
    "bound": ("packing upper bound for (n, d, k, q)", _bound_args, cmd_bound),
    "spread": ("build the subfield spread code", _spread_args, cmd_spread),
    "graph": ("orbit compatibility graph from an orbit db", _graph_args, cmd_graph),
    "clique": ("find cliques in a compatibility graph", _clique_args, cmd_clique),
    "selfdual": ("all minimal self-dual quasi-cyclic codes", _selfdual_args, cmd_selfdual),
    "conjecture-check": ("full-length orbit with d >= 2k-2 exists?",
                         _conjecture_check_args, cmd_conjecture_check),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; with command, only that one gets its arguments.

    Every subcommand is registered either way, so the top-level help and
    the error for an unknown command are the same.
    """
    p = argparse.ArgumentParser(
        prog="orbitcodes",
        description="cyclic and quasi-cyclic subspace codes: classify, "
                    "verify, bound, construct")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (summary, add_args, func) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        if command in (None, name):
            add_args(sp)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option but -h, so the first other word names the command
    command = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OrbitCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:      # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
