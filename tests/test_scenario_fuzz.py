"""Seeded mutation fuzz of both bundled scenarios through the command line.

Each case applies one mutation to a bundled scenario file: drop a key,
retype a value, negate a number, resize a vector or matrix row, name an
unknown leader, make a model matrix expanding or its input matrix zero, or
make a number non-finite.  ``pfcc validate``, a three-tick ``pfcc run`` and,
for the first cases, ``pfcc compare-gains`` must then end in a documented
exit code without a traceback, and a schema or assumption failure must print
one line.  The schema messages must be those of ``jsonschema.validate``, and
a non-finite number that the schema accepts must be reported at its path.
"""

from __future__ import annotations

import json
import random

import jsonschema
import pytest

from pfcc import cli
from pfcc import scenario as sc
from pfcc.errors import SchemaError

CASES_PER_SCENARIO = 40
#: Cases per scenario that also run ``compare-gains``, the slowest command.
COMPARE_CASES_PER_SCENARIO = 10
DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_ASSUMPTION,
                    cli.EXIT_EXCITATION, cli.EXIT_CONVERGENCE}
#: Mutation kinds, taken in turn so that the compare-gains cases meet each.
KINDS = ["drop", "retype", "negate", "resize", "leader", "unstable", "nonfinite"]
#: One value of each JSON type; a retyped value takes one of another type.
RETYPES = ["x", None, True, 1.5, [], {}]
#: Numbers that are not finite floats; ``json.dumps`` writes them as
#: ``NaN``, ``Infinity``, ``-Infinity`` and a 401-digit integer literal.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400]


def nodes(value, path=()):
    """Every (path, value) below ``value``, containers included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from nodes(item, path + (index,))


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_type(value) -> str:
    return "number" if is_number(value) else type(value).__name__


def mutate(raw: dict, rng: random.Random, kind: str) -> str:
    """Apply one random mutation of ``kind`` to ``raw`` in place; returns
    what it did."""
    everything = list(nodes(raw))[1:]

    def at(path):
        node = raw
        for key in path[:-1]:
            node = node[key]
        return node

    if kind == "drop":
        path, _ = rng.choice([(p, v) for p, v in everything if isinstance(p[-1], str)])
        del at(path)[path[-1]]
    elif kind == "retype":
        path, value = rng.choice(everything)
        at(path)[path[-1]] = rng.choice(
            [v for v in RETYPES if json_type(v) != json_type(value)])
    elif kind == "negate":
        path, value = rng.choice([(p, v) for p, v in everything if is_number(v)])
        at(path)[path[-1]] = -value
    elif kind == "resize":
        path, vector = rng.choice([(p, v) for p, v in everything if isinstance(v, list)
                                   and v and all(is_number(x) for x in v)])
        if rng.random() < 0.5:
            vector.append(0.5)
        else:
            vector.pop()
    elif kind == "nonfinite":
        path, _ = rng.choice([(p, v) for p, v in everything if is_number(v)])
        at(path)[path[-1]] = rng.choice(NON_FINITE)
    elif kind == "unstable":
        path, matrix = rng.choice([(p, v) for p, v in everything if p[-1] in ("A", "B", "S")])
        scale = 0.0 if path[-1] == "B" else 1.5
        at(path)[path[-1]] = [[scale * x for x in row] for row in matrix]
    elif rng.random() < 0.5:
        path = ("propensity_schedule", rng.randrange(len(raw["propensity_schedule"])),
                "factors", "Lx")
        at(path)["Lx"] = 1.0
    else:
        path = ("observers", "formation", "Lx")
        formation = raw["observers"]["formation"]
        formation["Lx"] = dict(next(iter(formation.values())))
    return f"{kind} {'/'.join(map(str, path))}"


def cases(name: str):
    """(case, mutated scenario, what the mutation did) of ``name``'s fuzz."""
    bundled = sc.scenario_to_dict(sc.load_bundled(name))
    rng = random.Random(f"pfcc-fuzz-{name}")
    for case in range(CASES_PER_SCENARIO):
        raw = json.loads(json.dumps(bundled))
        what = mutate(raw, rng, KINDS[case % len(KINDS)])
        yield case, raw, what


@pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
def test_mutated_scenarios_exit_with_documented_codes(name, tmp_path, capsys):
    for case, raw, what in cases(name):
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(raw))
        commands = [["validate", str(path)],
                    ["run", str(path), "--horizon", "3", "--out", str(tmp_path / f"out{case}")]]
        if case < COMPARE_CASES_PER_SCENARIO:
            commands.append(["compare-gains", str(path)])
        for command in commands:
            code = cli.main(command)
            captured = capsys.readouterr()
            text = captured.out + captured.err
            context = f"case {case} ({what}), {command[0]}: exit {code}: {text!r}"
            assert code in DOCUMENTED_EXITS, context
            assert "Traceback" not in text, context
            if code == cli.EXIT_SCHEMA or (code == cli.EXIT_ASSUMPTION
                                           and command[0] != "validate"):
                assert text.count("\n") == 1, context


@pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
def test_schema_messages_match_jsonschema_validate(name):
    for case, raw, what in cases(name):
        text = json.dumps(raw)
        try:
            jsonschema.validate(json.loads(text), sc.SCHEMA)
            expected = None
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            expected = f"scenario schema violation at {path}: {exc.message}"
        try:
            sc.parse_scenario_text(text)
            got = None
        except SchemaError as exc:
            got = str(exc)
        if expected is None and what.startswith("nonfinite "):
            # a non-finite number the schema accepts is reported at its path
            prefix = f"scenario schema violation at {what.split()[1]}: "
            assert got and got.startswith(prefix) and got.endswith(" must be finite"), got
            continue
        assert got == expected, f"case {case} ({what})"
