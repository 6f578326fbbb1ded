"""The registry of paper artifacts: one spec per DESIGN.md §4 experiment id.

Each :class:`Artifact` regenerates one artifact of the paper (a Table-1
row, a Figure-1 panel, a lemma check, an ablation) and states the
qualitative claims its table must show.  ``repro-cycles experiment``
selects artifacts by id, by id prefix (``table1``) or ``all``, prints
every table and one PASS/FAIL line per claim, and exits non-zero if any
claim fails::

    repro-cycles experiment all --workers 2
    repro-cycles experiment figure1 --quick
    repro-cycles experiment table1/crossover

Full parameters are the sizes the claims are stated at; ``--quick``
shrinks run counts and sweeps for smoke runs, with the same seeds.
Builders that fan trials out over the harness take ``--workers``; their
results are bit-identical to serial runs, so the printed tables do not
depend on it.

Only the CLI imports this module (``repro.experiments`` does not), so
processes that use the harness alone never load it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.lemmas import run_all_checks
from repro.analysis.variance import compare_estimators
from repro.arbitrary.algorithm import run_edge_algorithm
from repro.arbitrary.stream import EdgeStream
from repro.arbitrary.triangle_wedge import (
    EdgeStreamWedgeCountEstimator,
    EdgeStreamWedgeCounter,
)
from repro.baselines import wedge_sampling
from repro.baselines.naive_sampling import NaiveSamplingTriangleCounter
from repro.baselines.one_pass_triangle import OnePassTriangleCounter
from repro.baselines.wedge_sampling import WedgeSamplingTriangleCounter
from repro.core import triangle_two_pass
from repro.core.fourcycle_two_pass import TwoPassFourCycleCounter
from repro.core.transitivity import WedgeCounter
from repro.core.triangle_three_pass import ThreePassTriangleCounter
from repro.core.triangle_two_pass import TwoPassTriangleCounter
from repro.experiments import figure1, table1
from repro.experiments.harness import measure_accuracy
from repro.experiments.report import print_table
from repro.graph.counting import count_triangles, count_wedges
from repro.graph.generators import (
    book_graph,
    complete_graph,
    powerlaw_cluster_graph,
    theta_graph,
    windmill_graph,
)
from repro.graph.planted import (
    planted_cycles,
    planted_four_cycles_theta,
    planted_triangles,
    planted_triangles_book,
    planted_triangles_windmill,
)
from repro.streaming.runner import run_algorithm
from repro.streaming.stream import AdjacencyListStream

#: One claim's outcome: its statement and whether the result bears it out.
Claim = Tuple[str, bool]


@dataclass(frozen=True)
class Artifact:
    """One paper artifact: how to build it, print it and check it.

    ``build(**fixed, **quick_or_full)`` returns the result (plus
    ``workers=`` when ``parallel``); ``render(result)`` prints its
    table(s); ``claims(result)`` lists each claim with its verdict.
    """

    id: str
    title: str
    build: Callable[..., Any]
    render: Callable[[Any], None]
    claims: Callable[[Any], List[Claim]]
    quick: Mapping[str, Any]
    full: Mapping[str, Any]
    fixed: Mapping[str, Any] = field(default_factory=dict)  # params + seeds of both sizes
    parallel: bool = False  # build takes ``workers``


def run_artifact(
    artifact: Artifact, quick: bool = False, workers: Optional[int] = None
) -> List[Claim]:
    """Build the artifact, print its tables, and return its claims' verdicts."""
    params = {**artifact.fixed, **(artifact.quick if quick else artifact.full)}
    if artifact.parallel:
        params["workers"] = workers
    result = artifact.build(**params)
    artifact.render(result)
    return artifact.claims(result)


def select(selector: str) -> List[Artifact]:
    """Artifacts named by an id, an id prefix (``table1``) or ``all``."""
    chosen = [
        a for a in ARTIFACTS
        if selector in ("all", a.id) or a.id.startswith(selector + "/")
    ]
    if not chosen:
        raise SystemExit(
            f"unknown experiment {selector!r}; choose an id, a prefix or 'all':\n  "
            + "\n  ".join(a.id for a in ARTIFACTS)
        )
    return chosen


def _dict_table(as_dicts: Callable[[Sequence], List[dict]], title: str) -> Callable:
    """Renderer printing ``as_dicts(rows)`` as one table (Table-1/Figure-1 rows)."""

    def render(rows) -> None:
        dicts = as_dicts(rows)
        print_table(list(dicts[0].keys()), [list(d.values()) for d in dicts], title=title)

    return render


def _table1_row_claims(rows) -> List[Claim]:
    budgets = [row.budget for row in rows]
    return [
        ("every T reaches success rate >= 0.6",
         all(row.point.success_rate >= 0.6 for row in rows)),
        ("the budget shrinks as T grows", budgets == sorted(budgets, reverse=True)),
    ]


def _triangle_2pass_claims(rows) -> List[Claim]:
    return _table1_row_claims(rows) + [
        ("the theorem budget is sublinear (m' < m) at every T",
         all(row.budget < row.m for row in rows)),
    ]


# -- table1/triangle_1pass_upper ---------------------------------------------


def _one_vs_two_pass(**kwargs):
    return (
        table1.triangle_one_pass_rows(**kwargs),
        table1.triangle_two_pass_rows(**kwargs),
    )


def _budget_ratios(result) -> List[float]:
    one_rows, two_rows = result
    return [one.budget / two.budget for one, two in zip(one_rows, two_rows)]


def _render_one_vs_two_pass(result) -> None:
    one_rows, two_rows = result
    _dict_table(
        table1.rows_as_dicts,
        "Table 1 / triangle 1-pass upper bound ([27]): m' = c*m/sqrt(T)",
    )(one_rows)
    print_table(
        ["T", "1-pass m'", "2-pass m'", "ratio"],
        [
            [one.true_count, one.budget, two.budget, ratio]
            for one, two, ratio in zip(one_rows, two_rows, _budget_ratios(result))
        ],
        title="Who wins: 1-pass needs T^(2/3)/sqrt(T) = T^(1/6) more space",
    )


def _one_vs_two_pass_claims(result) -> List[Claim]:
    ratios = _budget_ratios(result)
    return [
        ("every T reaches success rate >= 0.6",
         all(row.point.success_rate >= 0.6 for row in result[0])),
        # The paper's hierarchy: the two-pass budget is smaller at every T,
        # with the gap growing as T^(1/6).
        ("the 2-pass budget is smaller at every T", all(r > 1 for r in ratios)),
        ("the 1-pass/2-pass budget ratio grows with T", ratios == sorted(ratios)),
    ]


# -- table1/triangle_1pass_wedge ---------------------------------------------


def _wedge_factory(budget, seed) -> WedgeSamplingTriangleCounter:
    return WedgeSamplingTriangleCounter(sample_size=max(budget, 1), seed=seed)


def _wedge_sampling_rows(t_values, runs, workers=None):
    def row(name, graph, t, seed):
        wedges = count_wedges(graph)
        budget = wedge_sampling.recommended_sample_size(wedges, t, epsilon=0.5)
        point = measure_accuracy(
            _wedge_factory, graph, t, budget, runs=runs, epsilon=0.5, seed=seed,
            workers=workers,
        )
        return (name, graph.m, wedges, t, budget, point)

    rows = [
        row("planted", planted_triangles(3000 - 3 * t, t, seed=t).graph, t, t)
        for t in t_values
    ]
    # Skewed-degree workload: P2 blows up relative to m.
    skewed = powerlaw_cluster_graph(600, 4, triangle_prob=0.7, seed=9)
    rows.append(row("powerlaw", skewed, count_triangles(skewed), 10))
    return rows


def _render_wedge_sampling(rows) -> None:
    print_table(
        ["workload", "m", "P2", "T", "k=c*P2/T", "median_rel_err", "success"],
        [
            [name, m, wedges, t, budget, p.median_relative_error, p.success_rate]
            for name, m, wedges, t, budget, p in rows
        ],
        title="Table 1 / wedge-sampling 1-pass upper bound ([12]): k = c*P2/(eps^2*T)",
    )


def _wedge_sampling_claims(rows) -> List[Claim]:
    skew = rows[-1]
    return [
        ("every workload reaches success rate >= 0.6",
         all(point.success_rate >= 0.6 for *_, point in rows)),
        # The row's parameterisation is the weak one, as Table 1 shows.
        ("P2 > 3m on the power-law graph", skew[2] > 3 * skew[1]),
    ]


# -- table1/triangle_2pass_distinguish ---------------------------------------


def _render_distinguisher(rows) -> None:
    print_table(
        ["m", "promised T", "m'", "detect rate (T-instance)", "false-positive rate"],
        [
            [r.m, r.promised_t, r.budget, r.detect_rate_on_t, r.false_positive_rate]
            for r in rows
        ],
        title="Table 1 / 0-vs-T distinguisher ([27]): m' = c*m/T^(2/3)",
    )


def _distinguisher_claims(rows) -> List[Claim]:
    return [
        ("no false positive on triangle-free graphs (one-sided error)",
         all(row.false_positive_rate == 0.0 for row in rows)),
        ("detection rate >= 0.7 at every T",
         all(row.detect_rate_on_t >= 0.7 for row in rows)),
    ]


# -- table1/crossover ---------------------------------------------------------


@dataclass(frozen=True)
class _Crossover:
    requested: List[int]
    result: Optional[table1.ScalingResult]


def _crossover(t_values, **kwargs) -> _Crossover:
    return _Crossover(list(t_values), table1.scaling_experiment(t_values=t_values, **kwargs))


def _render_crossover(crossover: _Crossover) -> None:
    result = crossover.result
    if result is None:
        return
    print_table(
        ["T", "2-pass min m'", "1-pass min m'"],
        [list(row) for row in zip(
            result.t_values, result.two_pass_budgets, result.one_pass_budgets
        )],
        title="Minimum budget for eps=0.5 accuracy (doubling-search resolution)",
    )
    print_table(
        ["algorithm", "fitted exponent", "theory"],
        [
            ["2-pass (Thm 3.7)", result.two_pass_exponent, -2 / 3],
            ["1-pass ([27])", result.one_pass_exponent, -1 / 2],
        ],
        title="Fitted space exponents vs T",
    )


def _crossover_claims(crossover: _Crossover) -> List[Claim]:
    result = crossover.result
    # A T whose search fails is dropped from the fit, so the claims below
    # would silently cover fewer T values.
    converged = result is not None and result.t_values == crossover.requested
    claims = [("the budget search converged at every requested T", converged)]
    if result is None:
        return claims
    # Qualitative shape (the search's geometric resolution and the
    # estimators' discrete granularity preclude tight exponent recovery).
    return claims + [
        ("both space needs decay with T (fitted exponents < -0.3)",
         result.two_pass_exponent < -0.3 and result.one_pass_exponent < -0.3),
        ("the 2-pass decay is at least as steep (within 0.05)",
         result.two_pass_exponent <= result.one_pass_exponent + 0.05),
        ("2-pass min m' <= 1-pass min m' at every T",
         all(two <= one for two, one in zip(
             result.two_pass_budgets, result.one_pass_budgets
         ))),
    ]


# -- figure1/* ----------------------------------------------------------------


def _gadget_claims(rows, sublinear: bool = True) -> List[Claim]:
    claims = [
        ("every gadget has 0 vs >= T cycles by answer",
         all(row.structure_ok for row in rows)),
        ("the exact-counter protocol decodes every answer",
         all(row.protocol_correct for row in rows)),
    ]
    if sublinear:
        claims.append((
            "the sublinear algorithm decodes every answer",
            all(row.sublinear_output == row.answer for row in rows),
        ))
    return claims


def _panel_c(sides, rates, trials):
    return (
        figure1.panel_c_rows(sides=sides, k=6, seed=0),
        figure1.panel_c_heuristic_failure(side=7, k=4, rates=rates, trials=trials, seed=1),
    )


def _render_panel_c(result) -> None:
    rows, failure = result
    _dict_table(
        figure1.rows_as_dicts,
        "Figure 1c: INDEX -> one-pass 4-cycle counting (Thm 5.3)",
    )(rows)
    print_table(
        ["sample rate", "~space (words)", "detect rate on T-instances"],
        [[r.sample_rate, r.expected_space_words, r.detect_rate] for r in failure],
        title="One-pass heuristic: detection needs Θ(m) space",
    )


def _panel_c_claims(result) -> List[Claim]:
    rows, failure = result
    return _gadget_claims(rows) + [
        ("the one-pass heuristic detects >= 0.9 at rate 1",
         failure[-1].detect_rate >= 0.9),
        ("the one-pass heuristic detects <= 0.5 at the lowest rate",
         failure[0].detect_rate <= 0.5),
    ]


def _panel_e(r_values):
    rows = []
    for r in r_values:
        rows.extend(figure1.panel_e_rows(lengths=(5, 6, 7), r=r, cycles=8, seed=r))
    return rows


def _panel_e_claims(rows) -> List[Claim]:
    # Message size (exact counter state) grows with the instance size r:
    # the Θ(m) = Θ(r) communication the reduction charges.
    by_length: Dict[str, List[Tuple[int, int]]] = {}
    for row in rows:
        r_value = int(row.params.split("r=")[1].split(",")[0])
        by_length.setdefault(row.params.split(",")[0], []).append(
            (r_value, row.max_message_words)
        )
    monotone = True
    for series in by_length.values():
        words = [w for _, w in sorted(series)]
        monotone = monotone and words == sorted(words)
    return _gadget_claims(rows, sublinear=False) + [
        ("the message size is monotone in r for every l", monotone),
    ]


# -- lemmas/structure ---------------------------------------------------------

_LEMMA_WORKLOADS = {
    "book(40)": lambda: book_graph(40),
    "windmill(25)": lambda: windmill_graph(25),
    "theta(14)": lambda: theta_graph(14),
    "K10": lambda: complete_graph(10),
    "book+noise": lambda: planted_triangles_book(200, 120, seed=1).graph,
    "theta+noise": lambda: planted_four_cycles_theta(150, 12, seed=2).graph,
}


def _lemma_checks(workloads):
    return [
        (name, check)
        for name in workloads
        for check in run_all_checks(_LEMMA_WORKLOADS[name](), stream_seed=7)
    ]


def _render_lemma_checks(results) -> None:
    print_table(
        ["workload", "lemma", "lhs", "cmp", "rhs", "holds", "slack"],
        [
            [name, c.name, c.lhs, c.comparison, c.rhs, c.holds, c.slack]
            for name, c in results
        ],
        title="Combinatorial lemma checks on adversarial workloads",
    )


# -- ablation/* ---------------------------------------------------------------

_ABLATION_WORKLOADS = {
    "disjoint (light)": lambda: planted_triangles(900, 300, seed=1),
    "book (heavy edge)": lambda: planted_triangles_book(900, 300, seed=2),
    "windmill (heavy vertex)": lambda: planted_triangles_windmill(900, 300, seed=3),
}


def _equal_space_ablation(estimators, workloads, runs):
    """Profile each estimator class at budget m/6 on each named workload."""
    results = {}
    for name in workloads:
        graph = _ABLATION_WORKLOADS[name]().graph
        truth = count_triangles(graph)
        budget = graph.m // 6
        factories = {
            label: (lambda s, cls=cls, b=budget: cls(b, seed=s))
            for label, cls in estimators.items()
        }
        results[name] = (
            truth, budget, compare_estimators(factories, graph, truth, runs=runs, seed=5)
        )
    return results


def _render_lightest_edge(results) -> None:
    rows = []
    for name, (truth, budget, profiles) in results.items():
        naive = profiles["naive"].relative_stddev
        rho = profiles["lightest_edge"].relative_stddev
        rows.append([name, truth, budget, naive, rho, naive / max(rho, 1e-12)])
    print_table(
        ["workload", "T", "m'", "naive rel-sd", "rho rel-sd", "variance ratio"],
        rows,
        title="Ablation: lightest-edge rule vs naive sampling at equal space",
    )


def _lightest_edge_claims(results) -> List[Claim]:
    heavy = results["book (heavy edge)"][2]
    light = results["disjoint (light)"][2]
    return [
        ("the lightest-edge rule halves the naive spread on the heavy-edge book",
         heavy["lightest_edge"].relative_stddev < 0.5 * heavy["naive"].relative_stddev),
        ("the lightest-edge median error < 0.5 on the light workload",
         light["lightest_edge"].errors.median_relative_error < 0.5),
    ]


def _render_h_vs_exact(results) -> None:
    print_table(
        ["workload", "estimator", "T", "m'", "median rel err", "rel stddev"],
        [
            [name, algo_name, truth, budget,
             profile.errors.median_relative_error, profile.relative_stddev]
            for name, (truth, budget, profiles) in results.items()
            for algo_name, profile in profiles.items()
        ],
        title="Ablation: H_{e,t} (2 passes) vs exact T(e) (3 passes)",
    )


def _h_vs_exact_claims(results) -> List[Claim]:
    profiles = [p for _, _, p in results.values()]
    return [
        # The paper's claim behind dropping the third pass.
        ("2-pass spread < 2.5 x 3-pass spread + 0.05 on every workload",
         all(p["2-pass (H)"].relative_stddev
             < 2.5 * p["3-pass (exact T_e)"].relative_stddev + 0.05
             for p in profiles)),
        ("2-pass median error < 0.5 on every workload",
         all(p["2-pass (H)"].errors.median_relative_error < 0.5 for p in profiles)),
    ]


# -- models/adjacency_vs_arbitrary --------------------------------------------


def _spread(estimates, truth) -> float:
    return statistics.pstdev(estimates) / truth


def _model_comparison(runs):
    planted = planted_triangles(2000, 400, seed=1)
    g = planted.graph
    rate = 0.15
    budget = round(rate * g.m)

    def adjacency(make, offset):
        return [
            run_algorithm(make(i), AdjacencyListStream(g, seed=offset + i)).estimate
            for i in range(runs)
        ]

    def edge(make, offset):
        return [
            run_edge_algorithm(make(i), EdgeStream(g, seed=offset + i)).estimate
            for i in range(runs)
        ]

    return {
        "graph": (g.m, planted.true_count, count_wedges(g)),
        # P2: exact (adjacency list) vs estimated (edge stream).
        "p2_exact": run_algorithm(WedgeCounter(), AdjacencyListStream(g, seed=2)),
        "p2_edge_estimates": edge(
            lambda i: EdgeStreamWedgeCountEstimator(rate, seed=i), 100
        ),
        # Triangles at equal space.
        "triangles": {
            "adjacency 1-pass ([27])": adjacency(
                lambda i: OnePassTriangleCounter(rate, seed=i), 200
            ),
            "adjacency 2-pass (Thm 3.7)": adjacency(
                lambda i: TwoPassTriangleCounter(budget, seed=i), 300
            ),
            "edge-stream 1-pass (wedge closure)": edge(
                lambda i: EdgeStreamWedgeCounter(rate, seed=i), 400
            ),
        },
        "budget": budget,
    }


def _render_model_comparison(data) -> None:
    _, truth, p2 = data["graph"]
    print_table(
        ["model", "P2 value", "space (words)", "rel spread"],
        [
            ["adjacency list (exact)", data["p2_exact"].estimate,
             data["p2_exact"].peak_space_words, 0.0],
            ["edge stream (sampled)",
             statistics.mean(data["p2_edge_estimates"]),
             "~2*p*m", _spread(data["p2_edge_estimates"], p2)],
        ],
        title=f"Wedge count P2 (truth {p2}): what the adjacency-list promise buys",
    )
    print_table(
        ["algorithm", "T", "~space (words)", "median estimate", "rel spread"],
        [
            [name, truth, data["budget"], statistics.median(estimates),
             _spread(estimates, truth)]
            for name, estimates in data["triangles"].items()
        ],
        title="Triangle counting at equal space across models (Section 1.1)",
    )


def _model_comparison_claims(data) -> List[Claim]:
    _, truth, p2 = data["graph"]
    spreads = {name: _spread(est, truth) for name, est in data["triangles"].items()}
    return [
        ("the adjacency-list P2 is exact", data["p2_exact"].estimate == p2),
        ("the adjacency-list P2 takes one word", data["p2_exact"].peak_space_words == 1),
        ("2-pass has the smallest spread",
         spreads["adjacency 2-pass (Thm 3.7)"] <= min(spreads.values()) + 1e-9),
        ("every median estimate is within 50% of T",
         all(abs(statistics.median(est) - truth) <= 0.5 * truth
             for est in data["triangles"].values())),
    ]


# -- engineering/runtime ------------------------------------------------------

_RUNTIME_WORKLOADS = {
    "small(m=1500,T=200)": (1500, 200),
    "medium(m=6000,T=800)": (6000, 800),
}


def _triangle_runtime(m_target, t):
    graph = planted_triangles(m_target - 3 * t, t, seed=1).graph
    budget = triangle_two_pass.recommended_sample_size(graph.m, t, epsilon=0.5)
    algo = TwoPassTriangleCounter(sample_size=budget, seed=3)
    return run_algorithm(algo, AdjacencyListStream(graph, seed=2))


def _fourcycle_runtime(m_target, t):
    graph = planted_cycles(m_target - 4 * t, t, length=4, seed=4).graph
    budget = max(2, round(4 * graph.m / t**0.375))
    algo = TwoPassFourCycleCounter(sample_size=budget, wedge_cap=4 * budget, seed=6)
    return run_algorithm(algo, AdjacencyListStream(graph, seed=5))


def _runtime_rows(workloads):
    rows = []
    for kind, run in (("triangle 2-pass", _triangle_runtime),
                      ("4-cycle 2-pass", _fourcycle_runtime)):
        for label in workloads:
            m_target, t = _RUNTIME_WORKLOADS[label]
            result = run(m_target, t)
            rows.append((kind, label, t, result.estimate, result.wall_time_seconds))
    return rows


def _runtime_claims(rows) -> List[Claim]:
    return [
        ("triangle 2-pass estimate within 0.75 T",
         all(abs(est - t) <= 0.75 * t
             for kind, _, t, est, _ in rows if kind == "triangle 2-pass")),
        ("4-cycle 2-pass estimate within a factor 4 of T",
         all(t / 4 <= est <= 4 * t
             for kind, _, t, est, _ in rows if kind == "4-cycle 2-pass")),
    ]


# -- the registry, in DESIGN.md §4 order ---------------------------------------

_TRIANGLE_SWEEP = {"m_target": 3000, "epsilon": 0.5, "seed": 0}
_TRIANGLE_SIZES = {
    "quick": {"t_values": (64, 216), "runs": 8},
    "full": {"t_values": (64, 216, 512, 1000), "runs": 16},
}

ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact(
        id="table1/triangle_2pass_upper",
        title='Table 1 row "Triangle, 2 passes, Õ(m/T^{2/3}), Thm 3.7"',
        build=table1.triangle_two_pass_rows,
        render=_dict_table(
            table1.rows_as_dicts,
            "Table 1 / triangle 2-pass upper bound (Thm 3.7): m' = c*m/T^(2/3)",
        ),
        claims=_triangle_2pass_claims,
        fixed=_TRIANGLE_SWEEP,
        parallel=True,
        **_TRIANGLE_SIZES,
    ),
    Artifact(
        id="table1/triangle_1pass_upper",
        title='Table 1 row "Triangle, 1 pass, Õ(m/√T) [27]"',
        build=_one_vs_two_pass,
        render=_render_one_vs_two_pass,
        claims=_one_vs_two_pass_claims,
        fixed=_TRIANGLE_SWEEP,
        parallel=True,
        **_TRIANGLE_SIZES,
    ),
    Artifact(
        id="table1/triangle_1pass_wedge",
        title='Table 1 row "Triangle, 1 pass, Õ(P2/T) [12]"',
        build=_wedge_sampling_rows,
        render=_render_wedge_sampling,
        claims=_wedge_sampling_claims,
        quick={"t_values": (64, 216), "runs": 8},
        full={"t_values": (64, 216, 512), "runs": 16},
        parallel=True,
    ),
    Artifact(
        id="table1/triangle_2pass_distinguish",
        title='Table 1 row "2 passes, Õ(m/T^{2/3}), distinguishing [27]"',
        build=table1.distinguisher_rows,
        render=_render_distinguisher,
        claims=_distinguisher_claims,
        fixed={"m_target": 3000, "seed": 0},
        **_TRIANGLE_SIZES,
    ),
    Artifact(
        id="table1/fourcycle_2pass_upper",
        title='Table 1 row "ℓ=4, 2 passes, Õ(m/T^{3/8}), Thm 4.6"',
        build=table1.fourcycle_rows,
        render=_dict_table(
            table1.rows_as_dicts,
            "Table 1 / 4-cycle 2-pass upper bound (Thm 4.6): m' = c*m/T^(3/8)",
        ),
        claims=_table1_row_claims,
        fixed={"m_target": 6000, "epsilon": 0.75, "seed": 0},
        quick={"t_values": (64, 256), "runs": 8},
        full={"t_values": (64, 256, 1024), "runs": 16},
        parallel=True,
    ),
    Artifact(
        id="table1/crossover",
        title='Table 1 "who wins" shape',
        build=_crossover,
        render=_render_crossover,
        claims=_crossover_claims,
        fixed={"m_target": 6000, "epsilon": 0.5, "seed": 0},
        quick={"t_values": (64, 343), "runs": 8},
        full={"t_values": (64, 125, 343, 729), "runs": 14},
        parallel=True,
    ),
    Artifact(
        id="figure1/a_one_pass_triangle",
        title="Fig 1a + Thm 5.1",
        build=figure1.panel_a_rows,
        render=_dict_table(
            figure1.rows_as_dicts, "Figure 1a: 3-PJ -> one-pass triangle counting (Thm 5.1)"
        ),
        claims=_gadget_claims,
        fixed={"k": 4, "seed": 0},
        quick={"r_values": (8, 16)},
        full={"r_values": (8, 16, 32)},
    ),
    Artifact(
        id="figure1/b_multipass_triangle",
        title="Fig 1b + Thm 5.2",
        build=figure1.panel_b_rows,
        render=_dict_table(
            figure1.rows_as_dicts,
            "Figure 1b: 3-DISJ -> multipass triangle counting (Thm 5.2)",
        ),
        claims=_gadget_claims,
        fixed={"k": 3, "seed": 0},
        quick={"r_values": (6, 10)},
        full={"r_values": (6, 10, 16)},
    ),
    Artifact(
        id="figure1/c_one_pass_fourcycle",
        title="Fig 1c + Thm 5.3",
        build=_panel_c,
        render=_render_panel_c,
        claims=_panel_c_claims,
        quick={"sides": (7,), "rates": (0.1, 0.5, 1.0), "trials": 10},
        full={"sides": (7, 13), "rates": (0.1, 0.25, 0.5, 0.75, 1.0), "trials": 20},
    ),
    Artifact(
        id="figure1/d_multipass_fourcycle",
        title="Fig 1d + Thm 5.4",
        build=figure1.panel_d_rows,
        render=_dict_table(
            figure1.rows_as_dicts,
            "Figure 1d: DISJ -> multipass 4-cycle counting (Thm 5.4)",
        ),
        claims=_gadget_claims,
        fixed={"seed": 0},
        quick={"side_pairs": ((7, 7),)},
        full={"side_pairs": ((7, 7), (13, 7))},
    ),
    Artifact(
        id="figure1/e_multipass_longcycle",
        title="Fig 1e + Thm 5.5",
        build=_panel_e,
        render=_dict_table(
            figure1.rows_as_dicts,
            "Figure 1e: DISJ -> l-cycle counting, l >= 5 (Thm 5.5)",
        ),
        claims=_panel_e_claims,
        quick={"r_values": (16, 32)},
        full={"r_values": (16, 32, 64)},
    ),
    Artifact(
        id="lemmas/structure",
        title="Lemma 3.2, Lemma 4.2, A.1–A.3",
        build=_lemma_checks,
        render=_render_lemma_checks,
        claims=lambda results: [
            ("every lemma holds on every workload",
             all(check.holds for _, check in results)),
        ],
        quick={"workloads": ("book(40)", "theta(14)", "K10")},
        full={"workloads": tuple(_LEMMA_WORKLOADS)},
    ),
    Artifact(
        id="ablation/lightest_edge",
        title="§2.1 discussion",
        build=_equal_space_ablation,
        render=_render_lightest_edge,
        claims=_lightest_edge_claims,
        fixed={
            "estimators": {
                "naive": NaiveSamplingTriangleCounter,
                "lightest_edge": TwoPassTriangleCounter,
            },
            "workloads": tuple(_ABLATION_WORKLOADS),
        },
        quick={"runs": 10},
        full={"runs": 30},
    ),
    Artifact(
        id="ablation/h_vs_exact",
        title="§2.1 → §3 transition",
        build=_equal_space_ablation,
        render=_render_h_vs_exact,
        claims=_h_vs_exact_claims,
        fixed={
            "estimators": {
                "2-pass (H)": TwoPassTriangleCounter,
                "3-pass (exact T_e)": ThreePassTriangleCounter,
            },
            "workloads": ("disjoint (light)", "book (heavy edge)"),
        },
        quick={"runs": 10},
        full={"runs": 30},
    ),
    Artifact(
        id="models/adjacency_vs_arbitrary",
        title="§1.1 / §1.2 model discussion",
        build=_model_comparison,
        render=_render_model_comparison,
        claims=_model_comparison_claims,
        quick={"runs": 10},
        full={"runs": 25},
    ),
    Artifact(
        id="engineering/runtime",
        title="(engineering, not a paper claim)",
        build=_runtime_rows,
        render=lambda rows: print_table(
            ["algorithm", "workload", "T", "estimate", "seconds"],
            [list(row) for row in rows],
            title="Runtime scaling (single timed run per workload)",
        ),
        claims=_runtime_claims,
        quick={"workloads": ("small(m=1500,T=200)",)},
        full={"workloads": tuple(_RUNTIME_WORKLOADS)},
    ),
)
