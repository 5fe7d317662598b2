"""Seeded mutation fuzz of both bundled scenarios through the command line.

Each case applies one mutation to a bundled scenario file: drop a key,
retype a value, negate a number, resize a vector or matrix row, or name an
unknown leader.  ``pfcc validate`` and a three-tick ``pfcc run`` must then
end in a documented exit code without a traceback, and a schema failure
must print one line.
"""

from __future__ import annotations

import json
import random

import pytest

from pfcc import cli
from pfcc import scenario as sc

CASES_PER_SCENARIO = 40
DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_ASSUMPTION,
                    cli.EXIT_EXCITATION, cli.EXIT_CONVERGENCE}
#: One value of each JSON type; a retyped value takes one of another type.
RETYPES = ["x", None, True, 1.5, [], {}]


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


def mutate(raw: dict, rng: random.Random) -> str:
    """Apply one random mutation to ``raw`` in place; returns what it did."""
    everything = list(nodes(raw))[1:]

    def at(path):
        node = raw
        for key in path[:-1]:
            node = node[key]
        return node

    kind = rng.choice(["drop", "retype", "negate", "resize", "leader"])
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
    elif rng.random() < 0.5:
        path = ("propensity_schedule", rng.randrange(len(raw["propensity_schedule"])),
                "factors", "Lx")
        at(path)["Lx"] = 1.0
    else:
        path = ("observers", "formation", "Lx")
        formation = raw["observers"]["formation"]
        formation["Lx"] = dict(next(iter(formation.values())))
    return f"{kind} {'/'.join(map(str, path))}"


@pytest.mark.parametrize("name", ["hexagon", "hexagon_static"])
def test_mutated_scenarios_exit_with_documented_codes(name, tmp_path, capsys):
    bundled = sc.scenario_to_dict(sc.load_bundled(name))
    rng = random.Random(f"pfcc-fuzz-{name}")
    for case in range(CASES_PER_SCENARIO):
        raw = json.loads(json.dumps(bundled))
        what = mutate(raw, rng)
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(raw))
        for command in (["validate", str(path)],
                        ["run", str(path), "--horizon", "3",
                         "--out", str(tmp_path / f"out{case}")]):
            code = cli.main(command)
            captured = capsys.readouterr()
            text = captured.out + captured.err
            context = f"case {case} ({what}), {command[0]}: exit {code}: {text!r}"
            assert code in DOCUMENTED_EXITS, context
            if code == cli.EXIT_SCHEMA:
                assert text.count("\n") == 1, context
