"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``evaluate``  — evaluate a query over a graph file under a semantics;
- ``batch``     — evaluate many queries (one per line) over one graph,
  sharing compilation and atom-relation work across the batch;
- ``update``    — apply a mutation script (add/remove lines) to a graph
  and re-evaluate a query, with atom relations *maintained*
  incrementally across the updates instead of rebuilt;
- ``analyze``   — statically analyze a query under a semantics: hard
  facts, unsatisfiable/duplicate disjunct and sibling-atom pruning
  (audited decisions), and warning-level lints — no graph needed,
  nothing executed;
- ``stats``     — validate and render a ``metrics-report-v1`` JSON file
  (written by ``--metrics-out`` on evaluate / batch / update);
- ``contains``  — decide containment between two queries;
- ``figure1``   — print the Figure 1 complexity table (optionally with the
  empirical agreement matrix);
- ``examples``  — list the runnable example scripts.

Graph files are plain text: ``source label target`` declares an edge, a
line with a single token declares an isolated node (whitespace-separated;
``#`` comments allowed).  Queries use the :mod:`repro.queries.parser`
syntax, e.g. ``"Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x"``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro.containment.api import contains
from repro.engine.runtime import ExecutionContext, ResourceBudget, active_context
from repro.errors import (
    EvaluationCancelled,
    QuerySyntaxError,
    RegexSyntaxError,
    ReproError,
    ResourceExhausted,
)
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.semantics.base import Semantics
from repro.semantics.evaluation import evaluate
from repro.semantics.trails import TrailSemantics, evaluate_trails

#: Exit codes: 0 success; 1 negative verdict (contains / certify);
#: 2 argparse usage errors; then the error taxonomy below.
EXIT_BUDGET = 3  #: resource budget exhausted / evaluation cancelled
EXIT_INPUT = 4  #: malformed query, regex, graph, or script input
EXIT_ERROR = 5  #: any other engine (ReproError) failure


def load_graph(path):
    """Load a graph database from a text file.

    Each non-comment line is either ``source label target`` (an edge) or
    a single token (an isolated node) — the latter is what lets graphs
    with isolated nodes round-trip through the text format at all.
    """
    graph = GraphDatabase()
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 1:
                graph.add_node(parts[0])
            elif len(parts) == 3:
                source, label, target = parts
                graph.add_edge(source, label, target)
            else:
                raise ValueError(
                    f"{path}:{line_number}: expected 'source label target' "
                    f"or a single 'node', got {line!r}"
                )
    return graph


_SEMANTICS_NAMES = " | ".join(
    [s.value for s in Semantics] + [t.value for t in TrailSemantics]
)


def _semantics_argument(value):
    try:
        return Semantics.coerce(value)
    except ValueError:
        pass
    try:
        return TrailSemantics.coerce(value)
    except ValueError:
        raise ValueError(
            f"unknown semantics: {value!r} (expected {_SEMANTICS_NAMES})"
        ) from None


def _print_answers(answers):
    for answer in sorted(answers, key=repr):
        print("\t".join(str(node) for node in answer) or "()")
    print(f"# {len(answers)} answer(s)")


def _execution_context(args):
    """The :class:`ExecutionContext` for the command's ``--timeout`` /
    ``--max-rows`` flags, or ``None`` when neither was given (ambient,
    unbounded — the historical behavior)."""
    timeout = getattr(args, "timeout", None)
    max_rows = getattr(args, "max_rows", None)
    if timeout is None and max_rows is None:
        return None
    return ExecutionContext(
        ResourceBudget(timeout=timeout, row_cap=max_rows)
    )


@contextmanager
def _observed(args, ctx):
    """Run the block under the command's execution context, optionally
    traced (``--trace``: span tree + per-query counters + checkpoint
    profile printed after the results) and snapshotted
    (``--metrics-out``: a ``metrics-report-v1`` file for the ``stats``
    subcommand).  The trace rides ``ctx`` when budget flags created
    one, else the session's own fresh context."""
    trace = None
    if getattr(args, "trace", False):
        from repro.devtools.obs import trace_session

        with trace_session(ctx=ctx) as trace:
            yield
    else:
        with active_context(ctx):
            yield
    if trace is not None:
        print("# --- trace ---")
        for line in trace.render().splitlines():
            print(f"# {line}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from repro.devtools.obs import write_report

        write_report(metrics_out)
        print(f"# metrics report written to {metrics_out}",
              file=sys.stderr)


def cmd_evaluate(args):
    graph = load_graph(args.graph)
    query = parse_query(args.query)
    semantics = _semantics_argument(args.semantics)
    if args.explain:
        if isinstance(semantics, TrailSemantics):
            raise ValueError(
                "--explain supports st | a-inj | q-inj (trail semantics "
                "have no join planner)"
            )
        from repro.engine.planner import explain_query

        print(f"# {query}")
        print(f"# semantics: {semantics}; graph: {graph}")
        print(explain_query(query, graph, semantics))
        return 0
    with _observed(args, _execution_context(args)):
        if isinstance(semantics, TrailSemantics):
            answers = evaluate_trails(query, graph, semantics)
        else:
            answers = evaluate(query, graph, semantics)
        print(f"# {query}")
        print(f"# semantics: {semantics}; graph: {graph}")
        _print_answers(answers)
    return 0


def load_queries(path):
    """Load a query-per-line file (``#`` comments and blank lines allowed)."""
    queries = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                queries.append(parse_query(text))
            except Exception as error:
                raise ValueError(
                    f"{path}:{line_number}: {error}"
                ) from error
    return queries


def cmd_batch(args):
    from repro.engine.batch import BatchError, BatchExecutor, QueryBatch

    graph = load_graph(args.graph)
    semantics = _semantics_argument(args.semantics)
    if isinstance(semantics, TrailSemantics):
        raise ValueError(
            "batch mode supports st | a-inj | q-inj (trail semantics "
            "have no batched executor yet)"
        )
    queries = load_queries(args.queries)
    batch = QueryBatch(queries)
    executor = BatchExecutor(graph, semantics, max_workers=args.workers)
    if args.explain:
        print(f"# graph: {graph}; semantics: {semantics}")
        print(executor.explain(batch))
        return 0
    with _observed(args, _execution_context(args)):
        plan = executor.warm(batch)
        print(f"# graph: {graph}; semantics: {semantics}")
        print(f"# plan: {plan} "
              f"({plan.num_shared_atoms} atom occurrence(s) shared)")
        failed = 0
        for index, query, answers in executor.results(batch, warmed=True):
            print(f"# [{index + 1}] {query}")
            if isinstance(answers, BatchError):
                failed += 1
                print(f"# error: {type(answers.error).__name__}: "
                      f"{answers.error}")
            else:
                _print_answers(answers)
    if failed:
        print(f"# {failed} quer{'y' if failed == 1 else 'ies'} failed",
              file=sys.stderr)
        return EXIT_ERROR
    return 0


def load_mutations(path):
    """Parse a mutation script into ``(line_number, op, payload)`` tuples.

    Line forms (``#`` comments and blank lines allowed):

    - ``add <source> <label> <target>``   — add an edge;
    - ``add <node>``                      — add an isolated node;
    - ``remove <source> <label> <target>``— remove an edge;
    - ``remove <node>``                   — remove an isolated node;
    - ``remove <node> cascade``           — remove a node and its edges;
    - ``eval``                            — re-evaluate the query here.

    Malformed lines report the 1-based line number and the offending
    text, like :func:`load_graph`.
    """
    operations = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            op, operands = parts[0].lower(), parts[1:]
            if op == "add" and len(operands) == 3:
                operations.append((line_number, "add-edge", tuple(operands)))
            elif op == "add" and len(operands) == 1:
                operations.append((line_number, "add-node", operands[0]))
            elif op == "remove" and len(operands) == 3:
                operations.append((line_number, "remove-edge",
                                   tuple(operands)))
            elif op == "remove" and len(operands) == 1:
                operations.append((line_number, "remove-node",
                                   (operands[0], False)))
            elif (op == "remove" and len(operands) == 2
                  and operands[1] == "cascade"):
                operations.append((line_number, "remove-node",
                                   (operands[0], True)))
            elif op == "eval" and not operands:
                operations.append((line_number, "eval", None))
            else:
                raise ValueError(
                    f"{path}:{line_number}: expected 'add s l t', "
                    f"'add n', 'remove s l t', 'remove n [cascade]' or "
                    f"'eval', got {text!r}"
                )
    return operations


def cmd_update(args):
    from repro.engine.incremental import IncrementalRelationStore

    graph = load_graph(args.graph)
    query = parse_query(args.query)
    semantics = _semantics_argument(args.semantics)
    if isinstance(semantics, TrailSemantics):
        raise ValueError(
            "update mode supports st | a-inj | q-inj (trail semantics "
            "have no incremental store)"
        )
    operations = load_mutations(args.mutations)
    store = IncrementalRelationStore(graph)
    ctx = _execution_context(args)

    def serve(stage):
        with active_context(ctx):
            answers = evaluate(query, graph, semantics)
        print(f"# [{stage}] graph: {graph}")
        _print_answers(answers)
        if args.explain:
            for line in store.explain_text().splitlines():
                print(f"#   {line}")
            store.clear_decisions()

    print(f"# {query}")
    print(f"# semantics: {semantics}")
    with _observed(args, ctx):
        serve("initial")
        applied = 0
        for line_number, op, payload in operations:
            if op == "eval":
                # Outside the try: an evaluation failure is an
                # engine/query problem, not a mutation-script error at
                # this line.
                serve(f"after {applied} update(s)")
                continue
            try:
                if op == "add-edge":
                    graph.add_edge(*payload)
                elif op == "add-node":
                    graph.add_node(payload)
                elif op == "remove-edge":
                    graph.remove_edge(*payload)
                else:  # remove-node
                    node, cascade = payload
                    graph.remove_node(node, cascade=cascade)
            except (KeyError, ValueError) as error:
                # KeyError renders its message repr-quoted; unwrap it.
                message = error.args[0] if error.args else error
                raise ValueError(
                    f"{args.mutations}:{line_number}: {message}"
                ) from error
            applied += 1
        if not operations or operations[-1][1] != "eval":
            serve("final")
    return 0


def cmd_analyze(args):
    from repro.engine.analyze import analyze

    query = parse_query(args.query)
    semantics = _semantics_argument(args.semantics)
    if isinstance(semantics, TrailSemantics):
        raise ValueError(
            "analyze supports st | a-inj | q-inj (trail semantics have "
            "no static analyzer)"
        )
    report = analyze(query, semantics)
    print(f"# {query}")
    print(report.explain())
    return 0


def cmd_stats(args):
    from repro.devtools.obs import load_report, render_report

    document = load_report(args.report)
    print(render_report(document))
    return 0


def cmd_contains(args):
    q1 = parse_query(args.left)
    q2 = parse_query(args.right)
    semantics = Semantics.coerce(args.semantics)
    result = contains(q1, q2, semantics, max_word_length=args.bound)
    print(f"Q1: {q1}")
    print(f"Q2: {q2}")
    print(f"result: {result}")
    if result.counterexample is not None:
        print(f"counterexample: {result.counterexample}")
    return 0 if bool(result) else 1


def cmd_certify(args):
    from repro.containment.certificates import containment_certificate
    from repro.containment.result import Verdict

    q1 = parse_query(args.left)
    q2 = parse_query(args.right)
    semantics = Semantics.coerce(args.semantics)
    verdict, payload = containment_certificate(q1, q2, semantics)
    print(f"Q1: {q1}")
    print(f"Q2: {q2}")
    print(f"verdict: {verdict}")
    if verdict is Verdict.CONTAINED:
        print(f"certificate: {len(payload)} expansion witness(es), "
              f"verify() = {payload.verify()}")
        for left_cq, right_cq, hom in payload.entries:
            rendered = ", ".join(
                f"{k}↦{v}" for k, v in sorted(hom.items(), key=repr)
            )
            print(f"  {left_cq}")
            print(f"    ⊇ {right_cq} via {{{rendered}}}")
        return 0
    print(f"counterexample: {payload}")
    return 1


def cmd_figure1(args):
    from repro.analysis.figure1 import figure1_table_text

    print(figure1_table_text())
    if args.agree:
        from repro.analysis.experiments import (
            agreement_matrix,
            agreement_matrix_text,
        )

        print()
        rows = agreement_matrix(pairs_per_cell=args.pairs, seed=args.seed)
        print(agreement_matrix_text(rows))
    return 0


def cmd_examples(_args):
    examples = [
        ("quickstart.py", "API tour: Figure 2, Example 2.1, Example 4.7"),
        ("knowledge_graph_queries.py", "semantics choice on a knowledge graph"),
        ("optimizer_audit.py", "rewrite soundness per semantics"),
        ("undecidability_frontier.py", "the PCP reduction live"),
        ("figure1_report.py", "Figure 1 + empirical agreement"),
    ]
    for name, description in examples:
        print(f"examples/{name:<32} {description}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRPQs under injective semantics (PODS 2023) — "
                    "evaluation and containment tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget_flags(subparser):
        subparser.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock deadline for the evaluation; exceeding it "
                 f"exits with code {EXIT_BUDGET}",
        )
        subparser.add_argument(
            "--max-rows", type=int, default=None, metavar="N",
            help="hard cap on intermediate join-table rows; exceeding "
                 f"it exits with code {EXIT_BUDGET}",
        )

    def telemetry_flags(subparser):
        subparser.add_argument(
            "--trace", action="store_true",
            help="record a structured query trace (span tree, per-query "
                 "counters, checkpoint-site profile) and print it after "
                 "the results",
        )
        subparser.add_argument(
            "--metrics-out", default=None, metavar="FILE",
            help="write the process-wide metrics snapshot to FILE as a "
                 "metrics-report-v1 JSON document (render it with the "
                 "'stats' subcommand)",
        )

    p_eval = sub.add_parser("evaluate", help="evaluate a query over a graph")
    p_eval.add_argument("query", help='e.g. "Q(x,y) :- x -[(ab)*]-> y"')
    p_eval.add_argument("graph", help="edge-list file: 'source label target'")
    p_eval.add_argument(
        "--semantics", default="st",
        help="st | a-inj | q-inj | atom-trail | query-trail",
    )
    p_eval.add_argument(
        "--explain", action="store_true",
        help="print the plan per ε-free disjunct instead of executing: "
             "the join plan under st / a-inj (components, elimination "
             "order, relation sizes), the relation-guided "
             "pruning plan under q-inj (reduced candidate tables, "
             "variable domains, atom search order)",
    )
    budget_flags(p_eval)
    telemetry_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_batch = sub.add_parser(
        "batch",
        help="evaluate many queries (one per line) over one graph, "
             "sharing atom-relation work",
    )
    p_batch.add_argument("graph", help="edge-list file: 'source label target'")
    p_batch.add_argument(
        "queries",
        help="query file, one query per line ('#' comments allowed)",
    )
    p_batch.add_argument(
        "--semantics", default="st", help="st | a-inj | q-inj",
    )
    p_batch.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool size for independent per-relation/per-query work",
    )
    p_batch.add_argument(
        "--explain", action="store_true",
        help="print the shared-work batch plan and every query's join "
             "plan (st / a-inj) or q-inj pruning plan (warms atom "
             "relations for the size annotations, executes no query)",
    )
    budget_flags(p_batch)
    telemetry_flags(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_upd = sub.add_parser(
        "update",
        help="apply a mutation script to a graph and re-evaluate a "
             "query, maintaining atom relations incrementally",
    )
    p_upd.add_argument("graph", help="edge-list file: 'source label target'")
    p_upd.add_argument(
        "mutations",
        help="mutation script: 'add s l t' | 'add n' | 'remove s l t' | "
             "'remove n [cascade]' | 'eval' ('#' comments allowed)",
    )
    p_upd.add_argument("query", help='e.g. "Q(x,y) :- x -[(ab)*]-> y"')
    p_upd.add_argument(
        "--semantics", default="st", help="st | a-inj | q-inj",
    )
    p_upd.add_argument(
        "--explain", action="store_true",
        help="after each evaluation, report the incremental store's "
             "per-relation decisions (built / maintained across the "
             "delta / rebuilt, with the reason)",
    )
    budget_flags(p_upd)
    telemetry_flags(p_upd)
    p_upd.set_defaults(func=cmd_update)

    p_an = sub.add_parser(
        "analyze",
        help="statically analyze a query: pruning decisions with their "
             "language-inclusion verdicts, plus lint diagnostics",
    )
    p_an.add_argument("query", help='e.g. "Q(x,y) :- x -[(ab)*]-> y"')
    p_an.add_argument(
        "--semantics", default="st", help="st | a-inj | q-inj",
    )
    p_an.set_defaults(func=cmd_analyze)

    p_stats = sub.add_parser(
        "stats",
        help="validate and render a metrics-report-v1 JSON file "
             "(written by --metrics-out)",
    )
    p_stats.add_argument(
        "report", help="path to a metrics-report-v1 JSON file",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_cont = sub.add_parser("contains", help="decide Q1 ⊆ Q2")
    p_cont.add_argument("left")
    p_cont.add_argument("right")
    p_cont.add_argument("--semantics", default="st")
    p_cont.add_argument("--bound", type=int, default=4,
                        help="word-length bound for the undecidable cell")
    p_cont.set_defaults(func=cmd_contains)

    p_cert = sub.add_parser(
        "certify",
        help="decide Q1 ⊆ Q2 with a re-checkable certificate (star-free)",
    )
    p_cert.add_argument("left")
    p_cert.add_argument("right")
    p_cert.add_argument("--semantics", default="st")
    p_cert.set_defaults(func=cmd_certify)

    p_fig = sub.add_parser("figure1", help="print the complexity table")
    p_fig.add_argument("--agree", action="store_true",
                       help="also run the agreement experiment")
    p_fig.add_argument("--pairs", type=int, default=2)
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.set_defaults(func=cmd_figure1)

    p_ex = sub.add_parser("examples", help="list example scripts")
    p_ex.set_defaults(func=cmd_examples)
    return parser


def main(argv=None):
    """Entry point; maps the error taxonomy onto distinct exit codes.

    Expected failures print one line to stderr — a traceback appears
    only for genuinely unexpected exceptions (bugs).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceExhausted, EvaluationCancelled) as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_BUDGET
    except (QuerySyntaxError, RegexSyntaxError, ValueError, OSError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_INPUT
    except ReproError as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
