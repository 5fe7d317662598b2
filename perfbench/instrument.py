"""Per-layer instrumentation of pfcc, applied from outside the package.

Every public function defined in a layer module (layer = module name) is
replaced by a span-recording wrapper, and so is every other name in the
package that refers to the same function object: ``learning`` imports
``vecv``/``vecm``/``unvecm``/``symmetrize``, ``model_control`` imports
``pinv`` and ``observers`` imports ``is_positive_definite`` by name, and
wrapping only the defining module would miss those calls.  Topology index
lookups run millions of times per run, so they are only counted.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics

from spans import Tracer, summarize

#: Layers timed with spans, in report order.
SPAN_LAYERS = ("simulation", "observers", "learning", "model_control", "matops",
               "propagation", "scenario", "cli")

#: Methods timed with spans (module, class, method).
SPAN_METHODS = (("learning", "DataBuffer", "record"),
                ("learning", "DataBuffer", "flush"))

#: Methods that are only counted: (module, class, method, counter name).
COUNTED_METHODS = (("topology", "DirectedTopology", "leader_index", "topology.index_calls"),
                   ("topology", "DirectedTopology", "follower_index", "topology.index_calls"))

OBSERVER_STEP = "observers.observer_step_tracking_leader"
TRACK_STEP = OBSERVER_STEP + "[track]"
FORM_STEP = OBSERVER_STEP + "[form]"


class Instrument:
    """Installs the wrappers on the ``pfcc`` package and derives the
    per-layer metrics from what they recorded."""

    def __init__(self, package):
        self.package = package
        self.modules = {info.name: importlib.import_module(f"{package.__name__}.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)}
        self.tracer = Tracer()
        self._patches: list[tuple[object, str, object]] = []
        self._tracking_configs: set[int] = set()
        self._window_epoch: dict[object, int] = {}
        self._window_sweeps: dict[tuple, int] = {}
        self._converged_windows: set[tuple] = set()
        self.riccati_iterations = 0

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for layer in SPAN_LAYERS:
            mod = self.modules[layer]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in [self.package] + list(self.modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(self.modules[layer], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                              vars(cls)[meth]))
        for layer, cls_name, meth, counter in COUNTED_METHODS:
            cls = getattr(self.modules[layer], cls_name)
            self._patch(cls, meth, self.tracer.counter(vars(cls)[meth], counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        span = self.tracer.span
        if name == OBSERVER_STEP:
            track, form = span(fn, TRACK_STEP), span(fn, FORM_STEP)
            tracking = self._tracking_configs

            def observer_step(obs, *args, **kwargs):
                step = track if id(obs.config) in tracking else form
                return step(obs, *args, **kwargs)
            return observer_step
        if name == "model_control.riccati_value_iteration":
            return span(fn, name, after=self._after_riccati)
        if name == "learning.learning_tick":
            return span(fn, name, after=self._after_sweep)
        if name == "learning.DataBuffer.flush":
            return span(fn, name, after=self._after_flush)
        return span(fn, name)

    def set_tracking_configs(self, scenario_configs) -> None:
        """Observer steps whose config is a tracking-network config of one of
        ``scenario_configs`` count as tracking steps, all others as formation
        steps."""
        self._tracking_configs.clear()
        for cfg in scenario_configs:
            self._tracking_configs.update(
                {id(cfg.leader_tracking_observer), id(cfg.follower_tracking_observer)})

    # -- hooks -----------------------------------------------------------
    def _after_riccati(self, args, solution) -> None:
        self.riccati_iterations += solution.iterations

    def _after_flush(self, args, _result) -> None:
        buf = args[0]
        self._window_epoch[buf] = self._window_epoch.get(buf, 0) + 1

    def _after_sweep(self, args, ctrl) -> None:
        buf = args[1]
        window = (buf, self._window_epoch.get(buf, 0))
        self._window_sweeps[window] = self._window_sweeps.get(window, 0) + 1
        if ctrl.status == self.modules["learning"].CONVERGED:
            self._converged_windows.add(window)

    def useful_sweeps(self) -> int:
        """Sweeps made on windows that went on to converge."""
        return sum(n for w, n in self._window_sweeps.items()
                   if w in self._converged_windows)

    # -- metrics ---------------------------------------------------------
    def mark(self) -> int:
        return len(self.tracer)

    def stats(self, first: int = 0, last: int | None = None) -> dict[str, dict]:
        t = self.tracer
        arrays = t.arrays()
        return summarize(t.names, arrays["name_id"], arrays["parent"],
                         arrays["start"], arrays["end"], first, last)

    def layer_self_times(self, stats: dict[str, dict]) -> dict[str, float]:
        out = {layer: 0.0 for layer in SPAN_LAYERS}
        for name, s in stats.items():
            out[name.split(".", 1)[0]] += s["self_s"]
        return out


def _calls(stats, *names) -> int:
    return sum(stats[n]["calls"] for n in names if n in stats)


def _total(stats, *names) -> float:
    return sum(stats[n]["total_s"] for n in names if n in stats)


def _mean_us(stats, name) -> float:
    calls = _calls(stats, name)
    return 1e6 * _total(stats, name) / calls if calls else 0.0


def layer_metrics(inst: Instrument, setup_stats: list[dict], run_stats: dict,
                  run_counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the set-up repetitions and the
    timed run.  Set-up metrics are medians over the repetitions; all others
    cover the timed run only."""
    own = inst.layer_self_times(run_stats)
    steps = (TRACK_STEP, FORM_STEP)
    step_calls = _calls(run_stats, *steps)
    sweeps = _calls(run_stats, "learning.learning_tick")

    def setup_median(*names) -> float:
        return statistics.median(_total(s, *names) for s in setup_stats)

    return {
        "observers.step_calls": (step_calls, "count"),
        "observers.track_step_s": (_total(run_stats, TRACK_STEP), "s"),
        "observers.form_step_s": (_total(run_stats, FORM_STEP), "s"),
        "observers.rls_s": (_total(run_stats, "observers.rls_update_L"), "s"),
        "observers.consensus_calls": (_calls(run_stats, "observers.consensus_error"), "count"),
        "observers.consensus_s": (_total(run_stats, "observers.consensus_error"), "s"),
        "observers.predict_s": (_total(run_stats, "observers.predict_state"), "s"),
        "observers.step_us": (1e6 * _total(run_stats, *steps) / step_calls
                              if step_calls else 0.0, "us"),
        "observers.self_s": (own["observers"], "s"),
        "simulation.step_calls": (_calls(run_stats, "simulation.step_world"), "count"),
        "simulation.self_s": (own["simulation"], "s"),
        "simulation.init_s": (setup_median("simulation.init_world"), "s"),
        "topology.index_calls": (run_counts.get("topology.index_calls", 0), "count"),
        "propagation.busy_s": (own["propagation"], "s"),
        "learning.tick_calls": (sweeps, "count"),
        "learning.tick_s": (_total(run_stats, "learning.learning_tick"), "s"),
        "learning.tick_us": (_mean_us(run_stats, "learning.learning_tick"), "us"),
        "learning.record_calls": (_calls(run_stats, "learning.DataBuffer.record"), "count"),
        "learning.record_s": (_total(run_stats, "learning.DataBuffer.record"), "s"),
        "learning.noise_calls": (_calls(run_stats, "learning.exploration_noise"), "count"),
        "learning.noise_s": (_total(run_stats, "learning.exploration_noise"), "s"),
        "learning.useful_sweep_ratio": (inst.useful_sweeps() / sweeps if sweeps else 0.0,
                                        "ratio"),
        "learning.self_s": (own["learning"], "s"),
        "model_control.riccati_calls": (
            _calls(run_stats, "model_control.riccati_value_iteration"), "count"),
        "model_control.riccati_iters": (inst.riccati_iterations, "count"),
        "model_control.riccati_s": (
            _total(run_stats, "model_control.riccati_value_iteration"), "s"),
        "model_control.riccati_us": (
            _mean_us(run_stats, "model_control.riccati_value_iteration"), "us"),
        "model_control.control_s": (_total(run_stats, "model_control.leader_control",
                                           "model_control.follower_control"), "s"),
        "model_control.regulation_s": (
            setup_median("model_control.min_norm_regulation_solution"), "s"),
        "model_control.self_s": (own["model_control"], "s"),
        "matops.vecv_calls": (_calls(run_stats, "matops.vecv"), "count"),
        "matops.vecm_calls": (_calls(run_stats, "matops.vecm"), "count"),
        "matops.pinv_calls": (_calls(run_stats, "matops.pinv"), "count"),
        "matops.busy_s": (own["matops"], "s"),
        "scenario.load_s": (setup_median("scenario.load_bundled"), "s"),
        "scenario.export_s": (_total(run_stats, "scenario.export_run"), "s"),
        "scenario.self_s": (own["scenario"], "s"),
        "cli.probe_s": (_total(run_stats, "cli.probe_window"), "s"),
        "cli.self_s": (own["cli"], "s"),
    }
