"""Seeded mutation fuzz of both bundled scenarios through the command line.

Each case applies one mutation to a bundled scenario file: drop a key,
retype a value, negate a number, resize a vector or matrix row, name an
unknown leader, make a model matrix expanding or its input matrix zero, or
make a number non-finite.  ``pfcc validate``, a three-tick ``pfcc run`` and,
for the first cases, ``pfcc compare-gains`` must then end in a documented
exit code without a traceback, and a schema or assumption failure must print
one line.  The schema messages must be those of ``jsonschema.validate``, and
a document that holds a non-finite number must fail its load with exit 2.

pfcc checks ``SCHEMA`` itself; jsonschema is the reference it is held to,
also on documents with two mutations (where the best match must break ties
between sibling and nested errors as jsonschema does) and on every key drop.
"""

from __future__ import annotations

import json
import random

import jsonschema
import pytest

from conftest import non_finite
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


def read(text: str):
    """The JSON document ``text`` as pfcc reads a scenario, for jsonschema to
    judge: an integer literal of more than 308 digits is a float (``inf``
    beyond the float range), so in an integer field it is a type error."""
    return json.loads(text, parse_int=lambda literal: (
        int(literal) if len(literal) <= 308 else float(literal)))


def json_type(value) -> str:
    return "number" if is_number(value) else type(value).__name__


def parent(raw, path):
    """The container that holds the value at ``path``."""
    for key in path[:-1]:
        raw = raw[key]
    return raw


def mutate(raw: dict, rng: random.Random, kind: str, within: tuple = ()) -> str:
    """Apply one random mutation of ``kind`` to ``raw`` in place, below
    the path ``within``; returns what it did."""
    everything = [(p, v) for p, v in list(nodes(raw))[1:]
                  if p[:len(within)] == within and p != within]

    if kind == "drop":
        path, _ = rng.choice([(p, v) for p, v in everything if isinstance(p[-1], str)])
        del parent(raw, path)[path[-1]]
    elif kind == "retype":
        path, value = rng.choice(everything)
        parent(raw, path)[path[-1]] = rng.choice(
            [v for v in RETYPES if json_type(v) != json_type(value)])
    elif kind == "negate":
        path, value = rng.choice([(p, v) for p, v in everything if is_number(v)])
        parent(raw, path)[path[-1]] = -value
    elif kind == "resize":
        path, vector = rng.choice([(p, v) for p, v in everything if isinstance(v, list)
                                   and v and all(is_number(x) for x in v)])
        if rng.random() < 0.5:
            vector.append(0.5)
        else:
            vector.pop()
    elif kind == "nonfinite":
        path, _ = rng.choice([(p, v) for p, v in everything if is_number(v)])
        parent(raw, path)[path[-1]] = rng.choice(NON_FINITE)
    elif kind == "unstable":
        path, matrix = rng.choice([(p, v) for p, v in everything if p[-1] in ("A", "B", "S")])
        scale = 0.0 if path[-1] == "B" else 1.5
        parent(raw, path)[path[-1]] = [[scale * x for x in row] for row in matrix]
    elif rng.random() < 0.5:
        path = ("propensity_schedule", rng.randrange(len(raw["propensity_schedule"])),
                "factors", "Lx")
        parent(raw, path)["Lx"] = 1.0
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
            jsonschema.validate(read(text), sc.SCHEMA)
            expected = None
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            expected = f"scenario schema violation at {path}: {exc.message}"
        try:
            sc.parse_scenario_text(text)
            got = None
        except SchemaError as exc:
            got = str(exc)
        assert got == expected, f"case {case} ({what})"


#: jsonschema's own validator of ``SCHEMA``: the reference for pfcc's.
REFERENCE = jsonschema.validators.validator_for(sc.SCHEMA)(sc.SCHEMA)
#: Mutation kinds that change only what the schema sees, and that apply
#: to whatever an earlier mutation left.
SCHEMA_KINDS = ["drop", "retype", "negate", "resize", "nonfinite"]
DOUBLE_CASES_PER_SCENARIO = 150


def assert_reports_best_match(raw, context):
    """``parse_scenario_text`` reports the error ``jsonschema.validate``
    would, and none where the schema finds none."""
    text = json.dumps(raw)
    error = jsonschema.exceptions.best_match(REFERENCE.iter_errors(read(text)))
    try:
        sc.parse_scenario_text(text)
        got = None
    except SchemaError as exc:
        got = str(exc)
    if error is None:
        assert got is None, (context, got)
    else:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        assert got == f"scenario schema violation at {path}: {error.message}", context


@pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
def test_two_mutations_report_jsonschemas_best_match(name):
    bundled = sc.scenario_to_dict(sc.load_bundled(name))
    rng = random.Random(f"pfcc-fuzz-two-{name}")
    # objects whose members the second half of the cases mutate twice, so
    # that errors tie on depth more often
    objects = [p for p, v in nodes(bundled) if isinstance(v, dict) and len(v) > 1]
    for case in range(DOUBLE_CASES_PER_SCENARIO):
        raw = json.loads(json.dumps(bundled))
        if case < DOUBLE_CASES_PER_SCENARIO // 2:
            what = [mutate(raw, rng, rng.choice(SCHEMA_KINDS)) for _ in range(2)]
        else:
            within = rng.choice(objects)
            what = [mutate(raw, rng, rng.choice(["drop", "retype"]), within)
                    for _ in range(2)]
        assert_reports_best_match(raw, f"case {case} ({what})")


@pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
def test_every_key_drop_reports_jsonschemas_best_match(name):
    bundled = sc.scenario_to_dict(sc.load_bundled(name))
    for path, _ in nodes(bundled):
        if path and isinstance(path[-1], str):
            raw = json.loads(json.dumps(bundled))
            del parent(raw, path)[path[-1]]
            assert_reports_best_match(raw, "drop " + "/".join(map(str, path)))


#: Entries that a number row rejects: a bool, a numeric string, null and a
#: nested list.
NOT_NUMBERS = [True, "1", None, [1.0]]
#: Number rows of each kind: a follower's input matrix row, a leader's
#: formation vector, the tracking state, an observer gain matrix row and a
#: warm-up gain row.
NUMBER_ROWS = [("followers", 0, "B", 1), ("leaders", 1, "h0"), ("tracking", "x0"),
               ("observers", "leader_tracking", "gain_matrix", 0),
               ("observers", "formation", "L2", "gain_matrix", 1),
               ("followers", 2, "warmup_gain", 0)]


@pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
def test_non_number_row_entries_report_jsonschemas_best_match(name):
    # a number row whose entries are all plain numbers passes in one check;
    # any other row is walked entry by entry, alone or with a second bad
    # entry in the same row or another row
    bundled = sc.scenario_to_dict(sc.load_bundled(name))
    rng = random.Random(f"pfcc-fuzz-rows-{name}")
    for row in NUMBER_ROWS:
        for entry in NOT_NUMBERS:
            for index in range(len(parent(bundled, row + (0,)))):
                raw = json.loads(json.dumps(bundled))
                parent(raw, row + (index,))[index] = entry
                assert_reports_best_match(raw, f"{row} [{index}] = {entry!r}")
                other = rng.choice(NUMBER_ROWS)
                slot = rng.randrange(len(parent(raw, other + (0,))))
                parent(raw, other + (slot,))[slot] = rng.choice(NOT_NUMBERS)
                assert_reports_best_match(raw, f"{row} [{index}] = {entry!r}, {other} [{slot}]")


def subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("prefixItems", ())]
    nested += [schema[key] for key in ("items", "additionalProperties")
               if isinstance(schema.get(key), dict)]
    for sub in nested:
        yield from subschemas(sub)


def test_schema_uses_only_keywords_that_pfcc_checks():
    jsonschema.validators.validator_for(sc.SCHEMA).check_schema(sc.SCHEMA)
    for schema in subschemas(sc.SCHEMA):
        # a value of no schema type visits every keyword without descending;
        # a keyword the walker does not check raises
        sc._violations(object(), schema, (), [])
    # a value keyword has no branch: every value rule is check_fields'
    for keyword in ("minimum", "maximum", "enum"):
        with pytest.raises(KeyError, match=f"'{keyword}'"):
            sc._violations(object(), {keyword: 1}, (), [])


NON_FINITE_CASES_PER_SCENARIO = 60


def non_finite_documents(name: str):
    """(what, JSON text) of the single-mutation fuzz, and of documents with
    one to three mutations, at least one of them a non-finite number, each
    also with its infinities written as overflowing literals ``1e999``."""
    documents = [(what, raw) for _, raw, what in cases(name)]
    bundled = sc.scenario_to_dict(sc.load_bundled(name))
    rng = random.Random(f"pfcc-fuzz-non-finite-{name}")
    for _ in range(NON_FINITE_CASES_PER_SCENARIO):
        raw = json.loads(json.dumps(bundled))
        kinds = ["nonfinite"] + [rng.choice(SCHEMA_KINDS) for _ in range(rng.randrange(3))]
        documents.append(([mutate(raw, rng, kind) for kind in kinds], raw))
    for what, raw in documents:
        text = json.dumps(raw)
        yield what, text
        if "Infinity" in text:
            yield what, text.replace("Infinity", "1e999")


@pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
def test_every_non_finite_number_fails_the_load(name, tmp_path, capsys):
    # the schema, check_fields and DirectedTopology reject every number that
    # is not finite; when each mutation made one, the line is the schema's
    # integer type or a field's finiteness rule
    scenario = tmp_path / "scenario.json"
    for what, text in non_finite_documents(name):
        if non_finite(json.loads(text)) is None:
            continue  # a later mutation dropped or replaced the number
        scenario.write_text(text)
        code = cli.main(["validate", str(scenario)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_SCHEMA and out.count("\n") == 1, (what, out)
        if all(step.startswith("nonfinite ") for step in ([what] if isinstance(what, str)
                                                           else what)):
            assert "must be finite" in out or "is not of type 'integer'" in out, (what, out)
