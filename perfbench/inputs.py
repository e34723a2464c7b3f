"""Seeded inputs for the three workloads, and the per-reply correctness checks.

Everything here runs before any clock starts.  The program under test only
ever sees the generated request bodies.  The streams hold each body as
compact JSON text, so that pools sized far beyond today's throughput stay
small in memory; a client decodes a body before it starts that request's
timer.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.workflow import Workflow
from repro.workloads import random_total_module, workflow_family, workflow_to_dict

#: Closed-loop clients driving the fleet (one per core on the reference box).
CLIENTS = 2

#: Request rates (both clients together) the input pools are sized for.
#: The unmodified program serves about 9 (cold_distinct), 45 (hot_repeat)
#: and 35 (edit_sweep) requests/s on 2 CPUs.  The pools allow ten times
#: that, and fifty times for hot_repeat, whose streams only reference its
#: 16 instances.  A client that runs out of inputs fails the run.
CEILING_RATE = {"cold_distinct": 90.0, "hot_repeat": 2250.0, "edit_sweep": 350.0}

COLD_MODULES = 4
COLD_SHAPE = (7, 5)
HOT_INSTANCES = 16
HOT_MODULES = 4
HOT_SHAPE = (6, 5)
EDIT_MODULES = 3
EDIT_CHAINS = 64
EDIT_SOLVERS = ("set_lp", "greedy")
EDIT_GAMMAS = (2,)

_COMPACT = (",", ":")


def _text(body: dict[str, Any]) -> str:
    return json.dumps(body, separators=_COMPACT)


@dataclass
class Workload:
    """One workload's generated traffic.

    ``streams[c]`` is client ``c``'s sequence of request bodies as JSON
    text.  ``cold_distinct`` shares one stream between both clients
    (distinct bodies must never repeat); the other two give each client its
    own.
    """

    name: str
    label: str  # "cold path" or "steady state"
    route: str  # "/solve" or "/sweep"
    streams: list[list[str]]
    shared_stream: bool
    modules_per_request: int
    #: Bodies answered before the clock: hot_repeat's instances (on every
    #: replica), edit_sweep's chain bases (once, through the front).
    warmup: list[dict[str, Any]] = field(default_factory=list)
    #: Cells per request (sweeps fan out; solves are one cell).
    cells_per_request: int = 1
    #: Reply check; returns an error string or ``None``.
    check: Callable[[dict[str, Any], dict[str, Any]], str | None] | None = None
    #: hot_repeat: instance index -> warm-up answer (filled by the runner).
    expected: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: cold_distinct: ``(body, answer)`` per reply, for the re-solve check.
    answers: list[tuple[dict[str, Any], dict[str, Any]]] = field(
        default_factory=list)

    def pool_size(self, seconds: float) -> int:
        """Bodies per stream: enough for ``CEILING_RATE`` for ``seconds``."""
        per_stream = CEILING_RATE[self.name] * seconds
        if not self.shared_stream:
            per_stream /= CLIENTS
        return max(32, int(math.ceil(per_stream)))

    def bodies(self, client: int, count: int) -> list[dict[str, Any]]:
        """The first ``count`` bodies of ``client``'s stream, decoded."""
        return [json.loads(text) for text in self.streams[client][:count]]


# ---------------------------------------------------------------------------
# cold_distinct
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _input_keys(n_inputs: int) -> tuple[tuple[int, str], ...]:
    """Input codes in the order ``workflow_to_dict`` lists table rows, each
    with its input tuple as JSON (bit ``k`` of the code is input ``k``)."""
    keys = sorted(
        (tuple((code >> bit) & 1 for bit in range(n_inputs)), code)
        for code in range(2**n_inputs)
    )
    return tuple((code, json.dumps(list(key), separators=_COMPACT))
                 for key, code in keys)


def _total_module_json(seed: int, n_inputs: int, n_outputs: int, name: str,
                       prefix: str) -> str:
    """The wire form of ``random_total_module(seed, ...)``, as JSON text.

    A run of cold_distinct needs thousands of never-seen modules.  Built as
    ``Module`` objects and tabulated by ``workflow_to_dict`` they cost ~3 ms
    each, ~25 s per run before the clock; this draws the same random stream
    as ``random_total_module`` and writes the table directly, in a sixth of
    that.  ``_check_cold`` pins the equality on every run.
    """
    rng = random.Random(seed)
    outputs = [
        "[" + ",".join(str(rng.randint(0, 1)) for _ in range(n_outputs)) + "]"
        for _ in range(2**n_inputs)
    ]
    head = _text({
        "name": name,
        "private": True,
        "privatization_cost": 1.0,
        "inputs": [{"name": f"{prefix}i{k}", "values": [0, 1], "cost": 1.0}
                   for k in range(n_inputs)],
        "outputs": [{"name": f"{prefix}o{k}", "values": [0, 1], "cost": 1.0}
                    for k in range(n_outputs)],
    })
    table = ",".join(f"[{key},{outputs[code]}]"
                     for code, key in _input_keys(n_inputs))
    return f'{head[:-1]},"table":[{table}]}}'


def _cold_body(seeds: list[int], name: str) -> str:
    modules = ",".join(
        _total_module_json(seed, *COLD_SHAPE, f"m{slot}", f"s{slot}_")
        for slot, seed in enumerate(seeds)
    )
    tail = _text({"gamma": 2, "kind": "set", "solver": "auto", "seed": 0})
    return f'{{"workflow":{{"name":{json.dumps(name)},"modules":[{modules}]}},{tail[1:]}'


def _total_workflow(seeds: list[int], shape: tuple[int, int], name: str) -> Workflow:
    return Workflow(
        [random_total_module(seed, *shape, f"m{slot}", f"s{slot}_")
         for slot, seed in enumerate(seeds)],
        name=name,
    )


def _check_cold(seeds: list[int], name: str, text: str) -> None:
    reference = workflow_to_dict(_total_workflow(seeds, COLD_SHAPE, name))
    if json.loads(text)["workflow"] != reference:
        raise RuntimeError(
            "cold_distinct body generator diverged from workflow_to_dict")


def _finite_cost(record: dict[str, Any]) -> str | None:
    cost = record.get("cost")
    if not isinstance(cost, (int, float)) or not math.isfinite(cost) or cost < 0:
        return f"cost {cost!r} is not finite and >= 0"
    return None


def cold_distinct(seed: int, seconds: float) -> Workload:
    """Never-seen 4-module workflows: every request derives, solves, writes."""
    rng = random.Random(f"cold_distinct:{seed}")
    workload = Workload(
        name="cold_distinct",
        label="cold path",
        route="/solve",
        streams=[],
        shared_stream=True,
        modules_per_request=COLD_MODULES,
    )
    size = workload.pool_size(seconds)
    bodies = []
    for index in range(size):
        seeds = [rng.getrandbits(48) for _ in range(COLD_MODULES)]
        name = f"cold-{seed}-{index}"
        bodies.append(_cold_body(seeds, name))
        if index in (0, size - 1):
            _check_cold(seeds, name, bodies[-1])
    workload.streams = [bodies]

    def check(body: dict[str, Any], record: dict[str, Any]) -> str | None:
        problem = _finite_cost(record)
        if problem is None and record.get("from_store") is not False:
            problem = "cold request was served from the store"
        workload.answers.append((body, answer_of(record)))
        return problem

    workload.check = check
    return workload


# ---------------------------------------------------------------------------
# hot_repeat
# ---------------------------------------------------------------------------

def hot_repeat(seed: int, seconds: float) -> Workload:
    """16 instances under Zipf-like popularity, all answered before the clock."""
    rng = random.Random(f"hot_repeat:{seed}")
    instances = []
    for index in range(HOT_INSTANCES):
        seeds = [rng.getrandbits(48) for _ in range(HOT_MODULES)]
        workflow = _total_workflow(seeds, HOT_SHAPE, f"hot-{seed}-{index}")
        instances.append(
            {"workflow": workflow_to_dict(workflow), "gamma": 2,
             "kind": "cardinality", "solver": "auto", "seed": 0,
             "label": f"hot#{index}"}
        )
    weights = [1.0 / (rank + 1) for rank in range(HOT_INSTANCES)]
    workload = Workload(
        name="hot_repeat",
        label="steady state",
        route="/solve",
        streams=[],
        shared_stream=False,
        modules_per_request=HOT_MODULES,
        warmup=instances,
    )
    texts = [_text(instance) for instance in instances]
    size = workload.pool_size(seconds)
    workload.streams = [
        rng.choices(texts, weights=weights, k=size) for _ in range(CLIENTS)
    ]

    def check(body: dict[str, Any], record: dict[str, Any]) -> str | None:
        index = int(body["label"].split("#")[1])
        expected = workload.expected.get(index)
        if expected is None:
            return f"instance {index} has no warm-up answer"
        got = answer_of(record)
        if got != expected:
            return f"instance {index} answered {got}, warm-up said {expected}"
        return None

    workload.check = check
    return workload


#: The fields of a solve record that make up its answer.
_ANSWER_KEYS = ("cost", "hidden_attributes", "privatized_modules",
                "resolved_solver", "guarantee")


def answer_of(record: dict[str, Any]) -> dict[str, Any]:
    return {key: record.get(key) for key in _ANSWER_KEYS}


# ---------------------------------------------------------------------------
# edit_sweep
# ---------------------------------------------------------------------------

def edit_chain(seed: int, client: int, chain: int, edits: int) -> list[Workflow]:
    """One 3-module chain's base followed by its ``edits`` variants."""
    chain_seed = random.Random(f"edit_sweep:{seed}:{client}:{chain}").getrandbits(32)
    return workflow_family(n_variants=edits, seed=chain_seed,
                           n_modules=EDIT_MODULES, topology="chain")


def _sweep_body(payloads: list[dict[str, Any]], solvers: tuple[str, ...],
                verify: bool) -> dict[str, Any]:
    return {"workflows": payloads, "gammas": list(EDIT_GAMMAS), "kinds": ["set"],
            "solvers": list(solvers), "seeds": [0], "verify": verify}


def edit_sweep(seed: int, seconds: float) -> Workload:
    """Each client walks its own edit chains, one edit per sweep request.

    Before the clock, one sweep per client derives every chain's base, so
    each timed request is an edit that re-derives the module it changed
    and finds the chain's other modules derived already.  A chain's random
    attribute costs decide how expensive its verifications are, and some
    chains stay expensive for several edits; a client walks
    ``EDIT_CHAINS`` chains in turn so that no few chains set the p95.
    """
    workload = Workload(
        name="edit_sweep",
        label="steady state",
        route="/sweep",
        streams=[],
        shared_stream=False,
        modules_per_request=EDIT_MODULES,
        cells_per_request=len(EDIT_GAMMAS) * len(EDIT_SOLVERS),
    )
    edits = -(-workload.pool_size(seconds) // EDIT_CHAINS)
    for client in range(CLIENTS):
        chains = [edit_chain(seed, client, chain, edits)
                  for chain in range(EDIT_CHAINS)]
        # Consecutive variants share module objects; tabulate each once.
        tabulated: dict[int, dict[str, Any]] = {}

        def payload(workflow: Workflow) -> dict[str, Any]:
            modules = []
            for module in workflow.modules:
                if id(module) not in tabulated:
                    tabulated[id(module)] = workflow_to_dict(
                        Workflow([module]))["modules"][0]
                modules.append(tabulated[id(module)])
            return {"name": workflow.name, "modules": modules}

        workload.warmup.append(_sweep_body(
            [payload(chain[0]) for chain in chains], ("greedy",), False))
        workload.streams.append([
            _text(_sweep_body([payload(chain[step])], EDIT_SOLVERS, True))
            for step in range(1, edits + 1)
            for chain in chains
        ])
    if workload.bodies(0, 1)[0]["workflows"][0] != workflow_to_dict(
            edit_chain(seed, 0, 0, 1)[1]):
        raise RuntimeError("edit_sweep body generator diverged from "
                           "workflow_to_dict")

    def check(body: dict[str, Any], record: dict[str, Any]) -> str | None:
        if record.get("errors") != 0:
            return f"sweep reported {record.get('errors')} error cell(s)"
        cells = record.get("records") or []
        if len(cells) != workload.cells_per_request:
            return f"sweep answered {len(cells)} cells"
        for cell in cells:
            if cell.get("verified") is not True:
                return f"cell {cell.get('index')} is not verified"
            problem = _finite_cost(cell)
            if problem is not None:
                return problem
        return None

    workload.check = check
    return workload


WORKLOADS = {
    "cold_distinct": cold_distinct,
    "hot_repeat": hot_repeat,
    "edit_sweep": edit_sweep,
}
