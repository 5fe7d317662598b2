"""Scenario files: parsing, validation, serialization, and trace export.

A scenario is a single JSON document with self-describing keys carrying the
agent models, the communication edges, the propensity-factor schedule, and
all observer/learner parameters.  Unknown keys are rejected so typos fail
loudly; matrices are row-major nested arrays whose dimensions are inferred
and cross-checked.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources

import jsonschema
import numpy as np

from . import learning as ln
from . import model_control as mc
from . import observers as ob
from . import simulation as sim
from .errors import AssumptionError, SchemaError
from .topology import DirectedTopology

TRACKING_NAME = "T"

_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
_VECTOR = {"type": "array", "items": {"type": "number"}}
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

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "mode", "seed", "horizon", "sample_interval",
                 "learn_start_tick", "tracking", "followers", "leaders",
                 "edges", "propensity_schedule", "observers", "learner"],
    "properties": {
        "name": {"type": "string"},
        "mode": {"enum": list(sim.MODES)},
        "seed": {"type": "integer"},
        "horizon": {"type": "integer", "minimum": 0},
        "sample_interval": {"type": "integer", "minimum": 1},
        "learn_start_tick": {"type": "integer", "minimum": 0},
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
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["tick", "factors"],
                "properties": {
                    "tick": {"type": "integer", "minimum": 0},
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
        "learner": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "noise_std": {"type": "number"},
                "gain_delta_threshold": {"type": "number"},
                "window": {"type": ["integer", "null"]},
                "relearn_on_alpha_change": {"type": "boolean"},
                "max_iterations": {"type": "integer", "minimum": 1},
            },
        },
    },
}


#: Validator of ``SCHEMA``, checked and built once; ``parse_scenario_text``
#: reports its best-matching error, as ``jsonschema.validate`` would.
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
VALIDATOR.check_schema(SCHEMA)


def _matrix(raw, what: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be a rectangular matrix") from exc
    if arr.ndim != 2 or any(len(row) != len(raw[0]) for row in raw):
        raise SchemaError(f"{what} must be a rectangular matrix")
    return arr


def _non_finite(value, path: tuple = ()) -> tuple | None:
    """Path to the first number in a parsed JSON value that is not a finite
    float (``NaN``, ``Infinity``, or a literal such as ``1e400`` or an
    integer of 400 digits that overflows one), else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return None if math.isfinite(value) else path
        except OverflowError:
            return path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = _non_finite(item, path + (key,))
        if found is not None:
            return found
    return None


def parse_scenario_text(text: str) -> dict:
    """JSON text to a validated raw dictionary; every number must be finite."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"scenario is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    error = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise SchemaError(f"scenario schema violation at {path}: {error.message}") from error
    where = _non_finite(raw)
    if where is not None:
        # an agent's field is named as the config checks name it
        subject = (f"{where[2]} of {raw[where[0]][where[1]]['name']}"
                   if where[0] in ("followers", "leaders") and len(where) > 2 else "numbers")
        raise SchemaError(f"scenario schema violation at {'/'.join(map(str, where))}: "
                          f"{subject} must be finite")
    return raw


def scenario_from_dict(raw: dict) -> sim.ScenarioConfig:
    """Build a runnable configuration from a validated raw dictionary."""
    follower_names = [f["name"] for f in raw["followers"]]
    leader_names = [l["name"] for l in raw["leaders"]]
    names = follower_names + leader_names
    if len(set(names)) != len(names) or TRACKING_NAME in names:
        raise SchemaError("agent names must be unique and must not shadow "
                          f"the tracking leader name {TRACKING_NAME!r}")
    n, m = len(follower_names), len(leader_names)
    node_of = {TRACKING_NAME: 0}
    node_of.update({nm: 1 + k for k, nm in enumerate(follower_names)})
    node_of.update({nm: 1 + n + k for k, nm in enumerate(leader_names)})

    tracking_a = _matrix(raw["tracking"]["A"], "tracking A")
    dim = tracking_a.shape[0]

    ff = np.zeros((n, n))
    ll = np.zeros((m, m))
    lf = np.zeros((n, m))
    tl = np.zeros(m)
    for src, dst, weight in raw["edges"]:
        if src not in node_of or dst not in node_of:
            raise SchemaError(f"edge references unknown agent: {src} -> {dst}")
        if weight < 0:
            raise SchemaError(f"edge weight must be nonnegative: {src} -> {dst}")
        s, d = node_of[src], node_of[dst]
        if d == 0:
            raise SchemaError("nothing may transmit to the tracking leader")
        if s == 0:
            if d <= n:
                raise SchemaError("the tracking leader only pins formation leaders")
            tl[d - 1 - n] = weight
        elif s <= n:
            if d > n:
                raise SchemaError(f"followers never transmit to leaders: {src} -> {dst}")
            ff[d - 1, s - 1] = weight
        else:
            if d <= n:
                lf[d - 1, s - 1 - n] = weight
            else:
                ll[d - 1 - n, s - 1 - n] = weight
    try:
        topo = DirectedTopology(n, m, ff, ll, lf, tl)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    def q_weight(entry) -> np.ndarray:
        qw = entry.get("q_weight", 1.0)
        if isinstance(qw, (int, float)):
            return float(qw) * np.eye(dim)
        return _matrix(qw, f"q_weight of {entry['name']}")

    followers, leaders, formation = [], [], []
    q_weights, warmups = {}, {}
    fol_x0, led_x0 = [], []
    def dynamics(entry) -> mc.AgentDynamics:
        try:
            return mc.AgentDynamics(_matrix(entry["A"], "A"),
                                    _matrix(entry["B"], "B"))
        except ValueError as exc:
            raise SchemaError(f"agent {entry['name']}: {exc}") from exc

    for k, entry in enumerate(raw["followers"]):
        node = 1 + k
        followers.append(dynamics(entry))
        fol_x0.append(np.asarray(entry.get("x0", [0.0] * dim), dtype=float))
        q_weights[node] = q_weight(entry)
        if "warmup_gain" in entry:
            warmups[node] = _matrix(entry["warmup_gain"], "warmup_gain")
    for k, entry in enumerate(raw["leaders"]):
        node = 1 + n + k
        leaders.append(dynamics(entry))
        led_x0.append(np.asarray(entry.get("x0", [0.0] * dim), dtype=float))
        try:
            formation.append(mc.FormationDynamics(_matrix(entry["S"], "S"),
                                                  entry["h0"]))
        except ValueError as exc:
            raise SchemaError(f"agent {entry['name']}: {exc}") from exc
        q_weights[node] = q_weight(entry)
        if "warmup_gain" in entry:
            warmups[node] = _matrix(entry["warmup_gain"], "warmup_gain")

    entries = []
    for item in raw["propensity_schedule"]:
        factors = {}
        for nm, value in item["factors"].items():
            if nm not in node_of or node_of[nm] <= n:
                raise SchemaError(f"schedule names unknown leader {nm!r}")
            if value <= 0:
                # positivity of the factors is a design assumption, not a
                # file-format matter
                raise AssumptionError(
                    f"propensity factor for {nm} must be positive, got {value}")
            factors[node_of[nm]] = float(value)
        entries.append((int(item["tick"]), factors))
    try:
        schedule = sim.PropensitySchedule(entries=tuple(entries))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    obs_raw = raw["observers"]

    def observer(entry) -> ob.ObserverConfig:
        try:
            return ob.ObserverConfig(
                xi=float(obs_raw["xi"]), coupling=float(entry["coupling"]),
                consensus_gain=float(entry["consensus_gain"]),
                gain_matrix=_matrix(entry["gain_matrix"], "observer gain matrix"),
                init_scale=float(obs_raw["init_scale"]))
        except ValueError as exc:
            raise SchemaError(f"observers: {exc}") from exc

    formation_cfgs = {}
    for nm in leader_names:
        if nm not in obs_raw["formation"]:
            raise SchemaError(f"observers.formation is missing leader {nm!r}")
    for nm, entry in obs_raw["formation"].items():
        if nm not in node_of or node_of[nm] <= n:
            raise SchemaError(f"observers.formation names unknown leader {nm!r}")
        formation_cfgs[node_of[nm]] = observer(entry)

    lrn = raw["learner"]
    try:
        learner = ln.LearnerConfig(
            noise_std=float(lrn.get("noise_std", 0.1)),
            gain_delta_threshold=float(lrn.get("gain_delta_threshold", 1e-6)),
            window=lrn.get("window"),
            relearn_on_alpha_change=bool(lrn.get("relearn_on_alpha_change", True)),
            max_iterations=int(lrn.get("max_iterations", 2000)))
    except ValueError as exc:
        raise SchemaError(f"learner: {exc}") from exc

    try:
        return sim.ScenarioConfig(
            name=raw["name"],
            topology=topo,
            follower_dynamics=followers,
            leader_dynamics=leaders,
            formation=formation,
            tracking_a=tracking_a,
            tracking_x0=np.asarray(raw["tracking"]["x0"], dtype=float),
            schedule=schedule,
            q_weights=q_weights,
            leader_tracking_observer=observer(obs_raw["leader_tracking"]),
            follower_tracking_observer=observer(obs_raw["follower_tracking"]),
            formation_observers=formation_cfgs,
            learner=learner,
            warmup_gains=warmups,
            learn_start_tick=int(raw["learn_start_tick"]),
            horizon=int(raw["horizon"]),
            sample_interval=int(raw["sample_interval"]),
            mode=raw["mode"],
            seed=int(raw["seed"]),
            follower_x0=fol_x0,
            leader_x0=led_x0,
            follower_names=follower_names,
            leader_names=leader_names,
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
    a = topo.full_adjacency()
    agents = range(1, topo.n_nodes)
    edges = [[TRACKING_NAME, cfg.agent_name(i), float(a[i, 0])]
             for i in agents if a[i, 0] > 0]
    edges += [[cfg.agent_name(j), cfg.agent_name(i), float(a[i, j])]
              for i in agents for j in agents if a[i, j] > 0]

    def obs_entry(o: ob.ObserverConfig) -> dict:
        return {"coupling": o.coupling, "consensus_gain": o.consensus_gain,
                "gain_matrix": mat(o.gain_matrix)}

    followers = []
    for k, dyn in enumerate(cfg.follower_dynamics):
        node = 1 + k
        entry = {"name": cfg.follower_names[k], "A": mat(dyn.A), "B": mat(dyn.B),
                 "x0": vector(cfg.follower_x0[k]),
                 "q_weight": mat(cfg.q_weights[node])}
        if node in cfg.warmup_gains:
            entry["warmup_gain"] = mat(cfg.warmup_gains[node])
        followers.append(entry)
    leaders = []
    for k, dyn in enumerate(cfg.leader_dynamics):
        node = 1 + n + k
        entry = {"name": cfg.leader_names[k], "A": mat(dyn.A), "B": mat(dyn.B),
                 "S": mat(cfg.formation[k].S), "h0": vector(cfg.formation[k].h0),
                 "x0": vector(cfg.leader_x0[k]),
                 "q_weight": mat(cfg.q_weights[node])}
        if node in cfg.warmup_gains:
            entry["warmup_gain"] = mat(cfg.warmup_gains[node])
        leaders.append(entry)

    return {
        "name": cfg.name,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "sample_interval": cfg.sample_interval,
        "learn_start_tick": cfg.learn_start_tick,
        "record_states": cfg.record_states,
        "tracking": {"A": mat(cfg.tracking_a), "x0": vector(cfg.tracking_x0)},
        "followers": followers,
        "leaders": leaders,
        "edges": edges,
        "propensity_schedule": [
            {"tick": t, "factors": {cfg.agent_name(q): v
                                    for q, v in sorted(factors.items())}}
            for t, factors in cfg.schedule.entries],
        "observers": {
            "xi": cfg.leader_tracking_observer.xi,
            "init_scale": cfg.leader_tracking_observer.init_scale,
            "leader_tracking": obs_entry(cfg.leader_tracking_observer),
            "follower_tracking": obs_entry(cfg.follower_tracking_observer),
            "formation": {cfg.agent_name(q): obs_entry(o)
                          for q, o in sorted(cfg.formation_observers.items())},
        },
        "learner": {
            "noise_std": cfg.learner.noise_std,
            "gain_delta_threshold": cfg.learner.gain_delta_threshold,
            "window": cfg.learner.window,
            "relearn_on_alpha_change": cfg.learner.relearn_on_alpha_change,
            "max_iterations": cfg.learner.max_iterations,
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
    ``start`` is 0."""
    rows = trace.rows()[start:stop]
    # one prebuilt format per row: "%d" and "%.17g" give the bytes of
    # ``f"{int(tick)}"`` and ``f"{v:.17g}"``
    row = "%d" + ",%.17g" * (rows.shape[1] - 1) + "\n"
    lines = [row % tuple(values) for values in rows.tolist()]
    if start == 0:
        lines.insert(0, ",".join(trace.header()) + "\n")
    return "".join(lines)


def export_run(result: sim.RunResult, out_dir) -> tuple[str, str]:
    """Write trace.csv and metadata.json into ``out_dir``; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.csv")
    meta_path = os.path.join(out_dir, "metadata.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_csv(result.trace, 0, CSV_CHUNK_ROWS))
        for start in range(CSV_CHUNK_ROWS, len(result.trace), CSV_CHUNK_ROWS):
            fh.write(trace_to_csv(result.trace, start, start + CSV_CHUNK_ROWS))
    from . import __version__

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
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return trace_path, meta_path
