"""Scenario files: parsing, validation, serialization, and trace export.

A scenario is a single JSON document with self-describing keys carrying the
agent models, the communication edges, the propensity-factor schedule, and
all observer parameters.  Unknown and repeated keys are rejected so typos
fail loudly; matrices are row-major nested arrays whose dimensions are
inferred and cross-checked.
"""

from __future__ import annotations

import hashlib
import json
import os
from importlib import resources

import numpy as np

from . import __version__
from . import model_control as mc
from . import observers as ob
from . import simulation as sim
from .errors import SchemaError
from .topology import DirectedTopology

_NUMBER = {"type": "number"}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _NUMBER}}
_VECTOR = {"type": "array", "items": _NUMBER}
_OBSERVER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["coupling", "consensus_gain", "gain_matrix"],
    "properties": {
        "coupling": {"type": "number"},
        "consensus_gain": {"type": "number"},
        "gain_matrix": _MATRIX,
    },
}

#: The scenario file's syntax: JSON Schema 2020-12 in only the keywords that
#: ``_violations`` checks; every value rule is ``ScenarioConfig.check_fields``'s.
SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "mode", "seed", "horizon", "sample_interval",
                 "learn_start_tick", "tracking", "followers", "leaders",
                 "edges", "propensity_schedule", "observers"],
    "properties": {
        "name": {"type": "string"},
        "mode": {"type": "string"},
        "seed": {"type": "integer"},
        "horizon": {"type": "integer"},
        "sample_interval": {"type": "integer"},
        "learn_start_tick": {"type": "integer"},
        "record_states": {"type": "boolean"},
        "tracking": {
            "type": "object",
            "additionalProperties": False,
            "required": ["A", "x0"],
            "properties": {"A": _MATRIX, "x0": _VECTOR},
        },
        "followers": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "A", "B"],
                "properties": {
                    "name": {"type": "string"},
                    "A": _MATRIX, "B": _MATRIX,
                    "x0": _VECTOR,
                    "q_weight": {"type": ["number", "array"]},
                    "warmup_gain": _MATRIX,
                },
            },
        },
        "leaders": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "A", "B", "S", "h0"],
                "properties": {
                    "name": {"type": "string"},
                    "A": _MATRIX, "B": _MATRIX, "S": _MATRIX,
                    "h0": _VECTOR, "x0": _VECTOR,
                    "q_weight": {"type": ["number", "array"]},
                    "warmup_gain": _MATRIX,
                },
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 3, "maxItems": 3,
                "prefixItems": [{"type": "string"}, {"type": "string"},
                                {"type": "number"}],
            },
        },
        "propensity_schedule": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["tick", "factors"],
                "properties": {
                    "tick": {"type": "integer"},
                    "factors": {"type": "object",
                                "additionalProperties": {"type": "number"}},
                },
            },
        },
        "observers": {
            "type": "object",
            "additionalProperties": False,
            "required": ["xi", "init_scale", "leader_tracking",
                         "follower_tracking", "formation"],
            "properties": {
                "xi": {"type": "number"},
                "init_scale": {"type": "number"},
                "leader_tracking": _OBSERVER,
                "follower_tracking": _OBSERVER,
                "formation": {"type": "object", "additionalProperties": _OBSERVER},
            },
        },
    },
}


#: JSON Schema 2020-12 type rules: a bool is not a number, and a float
#: with an integral value is an integer.
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


#: The exact types of the parsed JSON values that ``{"type": "number"}``
#: accepts; ``bool``, a subclass of ``int``, is not one of them.
_PLAIN_NUMBERS = frozenset((int, float))


def _matches_type(value, schema: dict) -> bool:
    types = schema.get("type", ())
    if isinstance(types, str):
        return _IS_TYPE[types](value)
    return any(_IS_TYPE[t](value) for t in types)


def _violations(value, schema: dict, path: tuple, out: list) -> None:
    """Append ``(path, message, value, schema)`` for each way ``value``
    breaks ``schema``: keywords in schema order, messages as jsonschema 4.26
    words them."""
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for keyword, arg in schema.items():
        message = None
        if keyword == "type":
            if not _matches_type(value, schema):
                types = [arg] if isinstance(arg, str) else arg
                message = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "required":
            out += [(path, f"{key!r} is a required property", value, schema)
                    for key in arg if is_object and key not in value]
        elif keyword == "properties":
            for key, sub in arg.items() if is_object else ():
                if key in value:
                    _violations(value[key], sub, path + (key,), out)
        elif keyword == "additionalProperties":
            known = schema.get("properties", {})
            extras = [key for key in value if key not in known] if is_object else []
            if arg is False and extras:
                names = ", ".join(map(repr, sorted(extras)))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
            elif isinstance(arg, dict):
                for key in extras:
                    _violations(value[key], arg, path + (key,), out)
        elif keyword == "items":
            start = len(schema.get("prefixItems", ()))
            # a row of plain numbers meets the number schema in one pass
            if is_array and not (arg == _NUMBER and _PLAIN_NUMBERS.issuperset(
                    map(type, value[start:]))):
                for index in range(start, len(value)):
                    _violations(value[index], arg, path + (index,), out)
        elif keyword == "prefixItems":
            for index, (item, sub) in enumerate(zip(value if is_array else (), arg)):
                _violations(item, sub, path + (index,), out)
        elif keyword == "minItems":
            if is_array and len(value) < arg:
                message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if is_array and len(value) > arg:
                message = f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        else:
            raise KeyError(f"schema keyword {keyword!r} is not supported")
        if message is not None:
            out.append((path, message, value, schema))


def _schema_violation(raw) -> str | None:
    """The violation of ``SCHEMA`` that ``jsonschema.exceptions.best_match``
    would report, at its path, else None: the shortest path, then the
    greatest, then one whose value fails its own schema's type, then the
    first found."""
    found = []
    _violations(raw, SCHEMA, (), found)
    if not found:
        return None
    path, message, _, _ = max(found, key=lambda err: (
        -len(err[0]), err[0], not _matches_type(err[2], err[3])))
    return f"scenario schema violation at {'/'.join(map(str, path)) or '<root>'}: {message}"


def _matrix(raw, what: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be a rectangular matrix") from exc
    if arr.ndim != 2:
        raise SchemaError(f"{what} must be a rectangular matrix")
    return arr


def _parse_int(literal: str) -> int | float:
    """An integer literal's value: exact up to 308 digits, which stay below
    the largest float, else ``float(literal)`` (``inf`` beyond the float
    range), so no literal meets Python's int-string length limit."""
    return int(literal) if len(literal) <= 308 else float(literal)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dictionary; a key given twice is an error, where
    ``json.loads`` alone would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        duplicate = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise SchemaError(f"scenario has a duplicate key {duplicate!r}")
    return obj


def parse_scenario_text(text: str) -> dict:
    """JSON text to a raw dictionary that meets ``SCHEMA``, with no object
    repeating a key: syntax only.

    ``NaN``, ``Infinity`` and a literal beyond the float range such as
    ``1e400`` parse as floats that are not finite; a number field rejects
    them in ``ScenarioConfig.check_fields`` (or ``DirectedTopology``, for
    an edge weight), an integer field in the schema's type rule.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"scenario is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    violation = _schema_violation(raw)
    if violation is not None:
        raise SchemaError(violation)
    return raw


def scenario_from_dict(raw: dict) -> sim.ScenarioConfig:
    """Build a runnable configuration from a validated raw dictionary."""
    agents = raw["followers"] + raw["leaders"]  # node order, from node 1
    names = [entry["name"] for entry in agents]
    try:
        sim.check_names(names)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    n, m = len(raw["followers"]), len(raw["leaders"])
    node_of = {nm: node for node, nm in enumerate([sim.TRACKING_NAME] + names)}

    tracking_a = _matrix(raw["tracking"]["A"], "tracking A")
    dim = tracking_a.shape[0]

    adjacency = np.zeros((1 + n + m, 1 + n + m))
    seen = set()
    for src, dst, weight in raw["edges"]:
        if src not in node_of or dst not in node_of:
            raise SchemaError(f"edge references unknown agent: {src} -> {dst}")
        if (src, dst) in seen:
            raise SchemaError(f"edge listed twice: {src} -> {dst}")
        seen.add((src, dst))
        adjacency[node_of[dst], node_of[src]] = weight
    try:
        topo = DirectedTopology(n, m, adjacency)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    def q_weight(entry) -> np.ndarray:
        qw = entry.get("q_weight", 1.0)
        if isinstance(qw, (int, float)):  # no 0 * inf off the diagonal
            return np.diag(np.full(dim, float(qw)))
        return _matrix(qw, f"q_weight of {entry['name']}")

    dynamics, formation, x0 = [], [], []
    q_weights, warmups = {}, {}
    for node, entry in enumerate(agents, 1):
        name = entry["name"]
        dynamics.append(mc.AgentDynamics(_matrix(entry["A"], f"A of {name}"),
                                         _matrix(entry["B"], f"B of {name}")))
        if node > n:
            formation.append(mc.FormationDynamics(
                _matrix(entry["S"], f"formation S of {name}"), entry["h0"]))
        x0.append(np.asarray(entry.get("x0", [0.0] * dim), dtype=float))
        q_weights[node] = q_weight(entry)
        if "warmup_gain" in entry:
            warmups[node] = _matrix(entry["warmup_gain"], f"warmup_gain of {name}")

    def leader_node(nm: str, section: str) -> int:
        if nm not in node_of:  # a leader's node is check_fields' rule
            raise SchemaError(f"{section} names unknown leader {nm!r}")
        return node_of[nm]

    schedule = sim.PropensitySchedule(entries=tuple(
        (int(item["tick"]), {leader_node(nm, "schedule"): float(value)
                             for nm, value in item["factors"].items()})
        for item in raw["propensity_schedule"]))

    obs_raw = raw["observers"]

    def observer(entry, network: str) -> ob.ObserverConfig:
        return ob.ObserverConfig(
            coupling=float(entry["coupling"]), consensus_gain=float(entry["consensus_gain"]),
            gain_matrix=_matrix(entry["gain_matrix"], f"{network} observer gain matrix"))

    formation_cfgs = {leader_node(nm, "observers.formation"): observer(entry, f"formation {nm}")
                      for nm, entry in obs_raw["formation"].items()}

    try:
        return sim.ScenarioConfig(
            name=raw["name"],
            topology=topo,
            dynamics=dynamics,
            formation=formation,
            tracking_a=tracking_a,
            tracking_x0=np.asarray(raw["tracking"]["x0"], dtype=float),
            schedule=schedule,
            q_weights=q_weights,
            xi=float(obs_raw["xi"]),
            init_scale=float(obs_raw["init_scale"]),
            leader_tracking_observer=observer(obs_raw["leader_tracking"], "leader tracking"),
            follower_tracking_observer=observer(obs_raw["follower_tracking"],
                                                "follower tracking"),
            formation_observers=formation_cfgs,
            warmup_gains=warmups,
            learn_start_tick=int(raw["learn_start_tick"]),
            horizon=int(raw["horizon"]),
            sample_interval=int(raw["sample_interval"]),
            mode=raw["mode"],
            seed=int(raw["seed"]),
            x0=x0,
            names=names,
            record_states=bool(raw.get("record_states", False)),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_scenario(path) -> sim.ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read scenario {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read scenario {path}: not UTF-8 text") from exc
    return scenario_from_dict(parse_scenario_text(text))


def load_bundled(name: str) -> sim.ScenarioConfig:
    """Load one of the scenarios shipped with the package."""
    text = resources.files("pfcc.scenarios").joinpath(f"{name}.json").read_text()
    return scenario_from_dict(parse_scenario_text(text))


def scenario_to_dict(cfg: sim.ScenarioConfig) -> dict:
    """Inverse of ``scenario_from_dict`` (round-trips exactly)."""
    topo = cfg.topology
    n = topo.n_followers

    def mat(a) -> list:
        return [[float(v) for v in row] for row in np.atleast_2d(a)]

    def vector(a) -> list:
        return [float(v) for v in np.asarray(a).ravel()]

    # tracking edges first, then each receiver's in-edges in node order
    a = topo.adjacency
    agents = range(1, topo.n_nodes)
    edges = [[sim.TRACKING_NAME, cfg.agent_name(i), float(a[i, 0])]
             for i in agents if a[i, 0] > 0]
    edges += [[cfg.agent_name(j), cfg.agent_name(i), float(a[i, j])]
              for i in agents for j in agents if a[i, j] > 0]

    def obs_entry(o: ob.ObserverConfig) -> dict:
        return {"coupling": o.coupling, "consensus_gain": o.consensus_gain,
                "gain_matrix": mat(o.gain_matrix)}

    agents = []
    for node, (name, dyn, x0) in enumerate(zip(cfg.names, cfg.dynamics, cfg.x0), 1):
        entry = {"name": name, "A": mat(dyn.A), "B": mat(dyn.B)}
        if topo.is_leader(node):
            form = cfg.formation[topo.leader_index(node)]
            entry.update(S=mat(form.S), h0=vector(form.h0))
        entry.update(x0=vector(x0), q_weight=mat(cfg.q_weights[node]))
        if node in cfg.warmup_gains:
            entry["warmup_gain"] = mat(cfg.warmup_gains[node])
        agents.append(entry)

    return {
        "name": cfg.name,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "sample_interval": cfg.sample_interval,
        "learn_start_tick": cfg.learn_start_tick,
        "record_states": cfg.record_states,
        "tracking": {"A": mat(cfg.tracking_a), "x0": vector(cfg.tracking_x0)},
        "followers": agents[:n],
        "leaders": agents[n:],
        "edges": edges,
        "propensity_schedule": [
            {"tick": t, "factors": {cfg.agent_name(q): v
                                    for q, v in sorted(factors.items())}}
            for t, factors in cfg.schedule.entries],
        "observers": {
            "xi": cfg.xi,
            "init_scale": cfg.init_scale,
            "leader_tracking": obs_entry(cfg.leader_tracking_observer),
            "follower_tracking": obs_entry(cfg.follower_tracking_observer),
            "formation": {cfg.agent_name(q): obs_entry(o)
                          for q, o in sorted(cfg.formation_observers.items())},
        },
    }


def config_digest(cfg: sim.ScenarioConfig) -> str:
    canonical = json.dumps(scenario_to_dict(cfg), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

#: Rows that ``export_run`` formats and writes at a time: a few hundred kB
#: of text instead of the whole table, so the export's memory stays small
#: and the same from one run to the next.
CSV_CHUNK_ROWS = 256


def trace_to_csv(trace: sim.TraceLog, start: int = 0, stop: int | None = None) -> str:
    """Delimited text, one row per sampled tick, 17 significant digits: the
    rows ``start:stop`` (all by default), after the header line when
    ``start`` is 0.

    Each distinct value of the rows is formatted once and its text shared
    by every cell that holds it; a periodic orbit repeats most values.
    Values are told apart by their bit patterns, so ``0.0`` and ``-0.0``
    keep their own text and every nan has one.  "%d" and "%.17g" give the
    bytes of ``f"{int(tick)}"`` and ``f"{v:.17g}"``."""
    rows = trace.rows()[start:stop]
    values = np.ascontiguousarray(rows[:, 1:])
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    cells = text[inverse.reshape(values.shape)].tolist()
    lines = ["%d,%s\n" % (tick, ",".join(row))
             for tick, row in zip(rows[:, 0].tolist(), cells)]
    if start == 0:
        lines.insert(0, ",".join(trace.header()) + "\n")
    return "".join(lines)


def export_run(result: sim.RunResult, out_dir) -> tuple[str, str]:
    """Write trace.csv and metadata.json into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.csv")
    meta_path = os.path.join(out_dir, "metadata.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_csv(result.trace, 0, CSV_CHUNK_ROWS))
        for start in range(CSV_CHUNK_ROWS, len(result.trace), CSV_CHUNK_ROWS):
            fh.write(trace_to_csv(result.trace, start, start + CSV_CHUNK_ROWS))
    meta = {
        "scenario": result.trace.config.name,
        "config_sha256": config_digest(result.trace.config),
        "package_version": __version__,
        "completed": result.completed,
        "summary": result.summary,
    }
    if result.error is not None:
        meta["error"] = {"tick": result.error.tick, "agent": result.error.agent,
                         "message": str(result.error.cause)}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return trace_path, meta_path
