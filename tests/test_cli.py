import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import orientw
from orientw import ParseError, PreconditionError, serialize
from orientw.generate import (gen_deadline_instance, gen_integer_instance,
                              gen_ratio2_instance, gen_zero_window_instance)

from conftest import line4_instance, window


# the CLI subprocess imports the same orientw as this test process
SRC = os.path.dirname(os.path.dirname(orientw.__file__))


def _run(*args, cwd=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "orientw.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


# ----- serialization ---------------------------------------------------------

def _same_instance(x, y):
    assert y.n == x.n
    assert y.windows == x.windows
    assert y.rewards == x.rewards
    assert (y.s, y.t) == (x.s, x.t)
    assert y.budget == x.budget
    assert y.wait_policy == x.wait_policy
    assert y.metric.directed == x.metric.directed
    for u in range(x.n):
        for v in range(x.n):
            assert y.metric.d[u][v] == x.metric.d[u][v]


@pytest.mark.parametrize("maker,seed", [
    (gen_integer_instance, 0),
    (gen_integer_instance, 3),
    (gen_ratio2_instance, 1),
    (lambda s: gen_ratio2_instance(s, mode="free"), 2),
    (gen_deadline_instance, 0),
    (gen_zero_window_instance, 1),
    (lambda s: gen_zero_window_instance(s, n_low=5, n_high=6), 4),
])
def test_round_trip(maker, seed):
    x = maker(seed)
    _same_instance(x, serialize.loads(serialize.dumps(x)))


def test_dumps_is_deterministic():
    x = gen_ratio2_instance(5)
    assert serialize.dumps(x) == serialize.dumps(x)


def test_loads_rejects_inverted_window():
    x = line4_instance()
    text = serialize.dumps(x).replace("[4, 8]", "[8, 4]", 1)
    # windows in the dump are scaled integers; flip one pair by hand instead
    import json
    data = json.loads(serialize.dumps(x))
    w = data["windows"][1]
    data["windows"][1] = [w[1], w[0]]
    with pytest.raises(ParseError):
        serialize.loads(json.dumps(data))


def test_loads_rejects_unknown_keys():
    import json
    data = json.loads(serialize.dumps(line4_instance()))
    data["extra"] = 1
    with pytest.raises(ParseError):
        serialize.loads(json.dumps(data))


def test_loads_rejects_float_exponents():
    import json
    data = json.loads(serialize.dumps(line4_instance()))
    text = json.dumps(data).replace('"budget": 5', '"budget": 5e0')
    with pytest.raises(ParseError):
        serialize.loads(text)


@pytest.mark.parametrize("bad", [5, None, {}, "edges"])
def test_loads_rejects_edges_that_are_not_a_list(bad):
    import json
    data = json.loads(serialize.dumps(line4_instance()))
    data["edges"] = bad
    with pytest.raises(ParseError, match="edges must be a list"):
        serialize.loads(json.dumps(data))


def test_non_list_edges_are_exit_1_without_traceback(tmp_path):
    import json
    data = json.loads(serialize.dumps(line4_instance()))
    data["edges"] = 5
    inst = tmp_path / "a.json"
    inst.write_text(json.dumps(data))
    r = _run("solve", str(inst))
    assert r.returncode == 1
    assert "error: edges must be a list" in r.stderr
    assert "Traceback" not in r.stderr


def test_time_scale_validation():
    import json
    data = json.loads(serialize.dumps(gen_ratio2_instance(1)))
    k = data.get("time_scale", 1)
    assert k > 1
    for bad in (0, -2, 2.5, True):
        data2 = dict(data)
        data2["time_scale"] = bad
        with pytest.raises(ParseError):
            serialize.loads(json.dumps(data2))
    # a different scale is not an error, it reinterprets the integer times
    data3 = dict(data)
    data3["time_scale"] = 2 * k
    y = serialize.loads(json.dumps(data3))
    x = serialize.loads(json.dumps(data))
    assert y.budget * 2 == x.budget


# ----- subcommands ------------------------------------------------------------

def test_gen_solve_exact_pipeline(tmp_path):
    inst = tmp_path / "a.json"
    r = _run("gen", "--family", "random-metric", "--n", "5", "--seed", "3",
             "--out", str(inst))
    assert r.returncode == 0, r.stderr
    assert inst.exists()

    again = _run("gen", "--family", "random-metric", "--n", "5", "--seed", "3")
    assert again.stdout == inst.read_text()

    solved = _run("solve", str(inst), "--algorithm", "auto")
    assert solved.returncode == 0, solved.stderr
    assert solved.stdout.startswith("algorithm:")
    assert "reward:" in solved.stdout and "walk:" in solved.stdout

    exact = _run("exact", str(inst))
    assert exact.returncode == 0
    assert exact.stdout.startswith("reward:")


def test_solve_out_writes_file(tmp_path):
    inst = tmp_path / "a.json"
    _run("gen", "--n", "4", "--seed", "1", "--out", str(inst))
    out = tmp_path / "report.txt"
    r = _run("solve", str(inst), "--out", str(out))
    assert r.returncode == 0
    assert out.read_text().startswith("algorithm:")
    assert r.stdout == ""


def test_decompose_output(tmp_path):
    inst = tmp_path / "a.json"
    _run("gen", "--n", "5", "--seed", "2", "--out", str(inst))
    r = _run("decompose", str(inst), "--construction", "ceil")
    assert r.returncode == 0
    assert r.stdout.startswith("construction: ceil")
    assert "version B1:" in r.stdout


def test_missing_file_is_exit_1(tmp_path):
    r = _run("solve", str(tmp_path / "nope.json"))
    assert r.returncode == 1
    assert "error" in r.stderr.lower()


def test_malformed_json_is_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = _run("solve", str(bad))
    assert r.returncode == 1


def test_precondition_is_exit_1(tmp_path):
    inst = tmp_path / "a.json"
    text = "\n".join([
        '{',
        '  "budget": 10,',
        '  "directed": false,',
        '  "edges": [[0, 1, 2], [1, 2, 2], [0, 2, 3]],',
        '  "n": 3,',
        '  "rewards": [0, 1, 0],',
        '  "s": 0,',
        '  "t": 2,',
        '  "time_scale": 2,',
        '  "wait_policy": "wait",',
        '  "windows": [[0, 20], [3, 9], [0, 20]]',
        '}',
    ])
    inst.write_text(text)   # vertex 1 window is [3/2, 9/2]: not integral
    r = _run("solve", str(inst), "--algorithm", "integer-endpoints")
    assert r.returncode == 1
    assert "error" in r.stderr


def test_usage_error_is_exit_1():
    r = _run("solve", "x.json", "--algorithm", "nonsense")
    assert r.returncode == 1


def test_infeasible_is_exit_2(tmp_path):
    inst = tmp_path / "tight.json"
    text = "\n".join([
        '{',
        '  "budget": 2,',
        '  "directed": false,',
        '  "edges": [[0, 1, 5]],',
        '  "n": 2,',
        '  "rewards": [1, 1],',
        '  "s": 0,',
        '  "t": 1,',
        '  "wait_policy": "wait",',
        '  "windows": [[0, 2], [0, 2]]',
        '}',
    ])
    inst.write_text(text)
    r = _run("exact", str(inst))
    assert r.returncode == 2
    assert "infeasible" in r.stderr.lower()


def test_solve_and_exact_refuse_an_unreachable_end_anchor_alike(tmp_path):
    # one check (instance.ensure_reachable_anchors) decides for the solvers
    # and the exact optimum, so both commands print the same refusal
    import json
    inst = tmp_path / "far.json"
    inst.write_text(json.dumps({"budget": 3, "directed": False, "edges": [[0, 1, 2], [1, 2, 2]],
                                "n": 3, "rewards": [0, 1, 0], "s": 0, "t": 2,
                                "wait_policy": "wait", "windows": [[0, 3], [1, 2], [0, 3]]}))
    errors = set()
    for command in ("solve", "exact"):
        r = _run(command, str(inst))
        assert r.returncode == 2, (command, r.stderr)
        errors.add(r.stderr)
    assert errors == {"infeasible: cannot reach 2 from 0 within budget 3\n"}


def test_bench_csv_is_byte_deterministic(tmp_path):
    files = []
    for seed in (1, 2):
        p = tmp_path / ("i%d.json" % seed)
        _run("gen", "--n", "5", "--seed", str(seed), "--out", str(p))
        files.append(str(p))
    r1 = _run("bench", *files)
    r2 = _run("bench", *files)
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout
    head = r1.stdout.splitlines()[0]
    assert head == ("instance_id,n,l_min,l_max,l_ratio,algorithm,oracle,"
                    "alg_reward,brute_reward,empirical_ratio,theoretical_bound,elapsed")
    assert "i1," in r1.stdout and "i2," in r1.stdout


def test_bench_summary_and_algorithm_subset(tmp_path):
    p = tmp_path / "i.json"
    _run("gen", "--n", "5", "--seed", "4", "--out", str(p))
    r = _run("bench", str(p), "--algorithms", "auto", "--summary")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    data_rows = [ln for ln in lines[1:] if ln and "," in ln]
    assert all(",auto," in row for row in data_rows)
    assert any("worst ratio" in ln for ln in lines)


def test_decimal_json_times_become_exact_rationals():
    import json
    doc = json.loads(serialize.dumps(line4_instance()))
    doc["windows"][1] = [0.5, 2]
    x = serialize.loads(json.dumps(doc))
    assert x.windows[1] == window(F(1, 2), 2)


def test_solve_auto_from_file_and_l2_refusal(tmp_path):
    path = tmp_path / "line4.json"
    path.write_text(serialize.dumps(line4_instance()))
    ok = _run("solve", str(path), "--algorithm", "auto")
    assert ok.returncode == 0
    assert "reward: 4" in ok.stdout
    # window lengths 1 and 5 mix, so the ratio-2 solver must refuse
    bad = _run("solve", str(path), "--algorithm", "l2")
    assert bad.returncode == 1
    assert "error:" in bad.stderr


def test_solve_names_skipped_versions_the_cited_solver_and_the_proof(tmp_path):
    # README's session: l2's B3 cannot beat B1's walk, so it is skipped
    demo = tmp_path / "demo.json"
    _run("gen", "--family", "line", "--n", "5", "--seed", "7", "--out", str(demo))
    r = _run("solve", str(demo))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[:8] == [
        "algorithm: l2", "reward: 3", "bound: 2", "beta: 2", "versions: B1=3,B3=skipped",
        "optimal: yes", "bound from: l2", "proven: yes"]
    # on greedy and layered, integer-endpoints' walk is kept at l2's bound,
    # and neither oracle declares a proven ratio
    big = tmp_path / "int30.json"
    _run("gen", "--n", "30", "--seed", "3", "--horizon", "20", "--l-low", "8",
         "--l-high", "16", "--integral", "--out", str(big))
    r = _run("solve", str(big), "--oracle", "greedy", "--deadline-oracle", "layered")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "algorithm: integer-endpoints" and lines[2] == "bound: 2"
    assert "B2_0=skipped" in lines[4]
    assert lines[6:8] == ["bound from: l2", "proven: no (greedy, layered not guaranteed)"]
    # a solver run alone cites its own bound
    r = _run("solve", str(demo), "--algorithm", "general", "--deadline-oracle", "layered")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[6:8] == ["bound from: general",
                                          "proven: no (layered not guaranteed)"]


def test_solve_prints_what_the_repair_added_last(tmp_path):
    # the start-only smoke on greedy and layered: the sink solve's versions
    # collect 4 and 2, and the insertion repair adds 7 to the kept walk
    start = tmp_path / "start.json"
    _run("gen", "--n", "12", "--seed", "3", "--mode", "start-only", "--horizon", "20",
         "--l-low", "8", "--l-high", "16", "--out", str(start))
    r = _run("solve", str(start), "--oracle", "greedy", "--deadline-oracle", "layered")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[:6] == ["algorithm: l2", "reward: 11", "bound: 2", "beta: 2",
                         "versions: B1=4,B3=2", "optimal: yes"]
    assert lines[-1] == "repair: +7"
    # a solver run alone is not repaired
    demo = tmp_path / "demo.json"
    _run("gen", "--family", "line", "--n", "5", "--seed", "7", "--out", str(demo))
    r = _run("solve", str(demo), "--algorithm", "l2")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "repair: +0"


def test_directed_family_is_actually_asymmetric():
    from orientw.generate import generate_instance
    found = False
    for seed in range(10):
        x = generate_instance("directed-random", 5, seed)
        m = x.metric
        if any(m.d[u][v] != m.d[v][u]
               for u in range(5) for v in range(5)):
            found = True
            break
    assert found


@pytest.mark.parametrize("bounds, message", [
    (("--l-low", "3", "--l-high", "2"), "0 <= l_low <= l_high"),
    (("--l-low", "-2"), "0 <= l_low <= l_high"),
    (("--l-low", "1/3", "--l-high", "1/2", "--integral"),
     "no point of the 1/1 grid lies in [1/3, 1/2]"),
    (("--l-low", "1/3", "--l-high", "2/5"), "no point of the 1/4 grid lies in [1/3, 2/5]"),
])
def test_gen_refuses_window_length_bounds_it_cannot_meet(bounds, message):
    r = _run("gen", "--n", "5", *bounds)
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and message in r.stderr, r.stderr


def test_euclidean_grid_refuses_more_vertices_than_its_cells():
    # the 6x6 grid holds 36 distinct points; 37 used to end in random.sample's
    # ValueError
    from orientw.generate import generate_instance
    assert generate_instance("euclidean-grid", 36, 0).n == 36
    with pytest.raises(PreconditionError, match="at most 36 vertices"):
        generate_instance("euclidean-grid", 37, 0)


def test_gen_prints_the_euclidean_grid_limit_instead_of_a_traceback():
    r = _run("gen", "--family", "euclidean-grid", "--n", "37")
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "at most 36 vertices" in r.stderr, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("integral, low, high", [
    (False, F(1, 3), F(2, 3)), (False, F(1, 5), F(9, 10)), (False, F(0), F(1, 4)),
    (True, F(1, 2), F(5, 2)), (True, F(0), F(1)),
])
def test_generated_window_lengths_stay_within_their_bounds(integral, low, high):
    from orientw.generate import generate_instance
    for seed in range(20):
        x = generate_instance("random-metric", 6, seed, integral=integral, l_low=low, l_high=high)
        for v in x.positive_vertices():
            w = x.windows[v]
            assert low <= w.deadline - w.release <= high, (seed, v, w)


def test_bench_general_never_beats_its_bound():
    from orientw.bench import bench_rows
    from orientw.generate import generate_instance
    instances = [("line-%d" % seed, generate_instance("line", 6, seed))
                 for seed in range(100)]
    rows = bench_rows(instances, algorithms=["general"])
    assert rows
    for row in rows:
        assert row.empirical_ratio != "inf", row.instance_id
        if row.empirical_ratio is not None:
            assert F(row.empirical_ratio) <= row.theoretical_bound, row.instance_id


def test_bench_leaves_the_optimum_empty_where_brute_force_refuses(tmp_path):
    # brute_force_opt handles the waiting policy only; a no-wait instance is
    # data for the bench, not an abort, and adds nothing to the wait one's CSV
    from dataclasses import replace
    from orientw.bench import bench_rows, rows_to_csv
    from orientw.generate import generate_instance
    wait = generate_instance("line", 5, 1)
    no_wait = replace(wait, wait_policy=orientw.NO_WAIT)
    rows = bench_rows([("a", wait), ("b", no_wait)])
    assert rows == bench_rows([("a", wait)])
    assert rows and all(r.brute_reward is not None for r in rows)
    for name, x in (("a", wait), ("b", no_wait)):
        (tmp_path / (name + ".json")).write_text(serialize.dumps(x))
    both = _run("bench", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    alone = _run("bench", str(tmp_path / "a.json"))
    assert both.returncode == 0, both.stderr
    assert both.stdout == alone.stdout == rows_to_csv(rows)


def test_bench_adds_no_row_for_an_instance_that_admits_no_walk(tmp_path, monkeypatch):
    # an end anchor out of reach within the budget: brute_force_opt and
    # every solver raise InfeasibleInstanceError, which the bench takes as
    # data, as it does a refusal; solve and exact still exit 2 on it
    from dataclasses import replace
    import orientw.bench as bench
    from orientw.generate import generate_instance
    ok = generate_instance("line", 5, 1)
    stuck = replace(generate_instance("line", 5, 7), budget=F(2), windows=(window(0, 2),) * 5)
    assert stuck.metric.d[stuck.s][stuck.t] > stuck.budget
    rows = bench.bench_rows([("a", ok), ("b", stuck)])
    assert rows == bench.bench_rows([("a", ok)])
    assert rows and all(r.brute_reward is not None for r in rows)
    for name, x in (("a", ok), ("b", stuck)):
        (tmp_path / (name + ".json")).write_text(serialize.dumps(x))
    both = _run("bench", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    alone = _run("bench", str(tmp_path / "a.json"))
    assert both.returncode == 0, both.stderr
    assert both.stdout == alone.stdout == bench.rows_to_csv(rows)
    for command in ("solve", "exact"):
        assert _run(command, str(tmp_path / "b.json")).returncode == 2, command
    # past BRUTE_LIMIT only the solvers see it
    monkeypatch.setattr(bench, "BRUTE_LIMIT", 0)
    assert bench.bench_rows([("b", stuck)]) == []


def test_bench_with_no_instances_is_header_only():
    from orientw.bench import bench_rows, rows_to_csv, HEADER
    assert rows_to_csv(bench_rows([])) == HEADER + "\n"


def test_bench_rejects_an_unknown_algorithm_even_with_no_instances():
    from orientw import PreconditionError
    from orientw.bench import bench_rows
    with pytest.raises(PreconditionError, match="unknown algorithm 'nope'"):
        bench_rows([], algorithms=["general", "nope"])


@pytest.mark.parametrize("names, message", [
    ({"oracle_name": "bogus"}, "unknown oracle 'bogus'"),
    ({"deadline_oracle_name": "bogus"}, "unknown deadline oracle 'bogus'"),
])
def test_bench_rejects_an_unknown_oracle_even_with_no_instances(names, message):
    # an unknown name is a precondition, like an unknown algorithm, not a KeyError
    from orientw import PreconditionError
    from orientw.bench import bench_rows
    with pytest.raises(PreconditionError, match=message):
        bench_rows([], **names)


def test_readme_lists_exactly_the_registered_algorithms():
    from orientw import ALGORITHMS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("(`--algorithm`):", 1)[1].split("Oracles:", 1)[0]
    names = set(re.findall(r"`([a-z0-9-]+)`", listed))
    names |= set(re.findall(r"--algorithm ([a-z0-9-]+)", readme))
    assert sorted(names - set(ALGORITHMS)) == []
    assert sorted(set(ALGORITHMS) - names) == []


def test_readme_python_session_runs_as_quoted():
    # a README that imports a removed name fails here, not in a reader's shell
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    session = readme.split("```python\n", 1)[1].split("```", 1)[0]
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", session], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["4 2", "4"]


def test_every_deadline_oracle_choice_resolves():
    from orientw.cli import _build_parser
    from orientw.oracles import (DEADLINE_ORACLES, EXACT_ORACLE,
                                 deadline_oracle_by_name)
    commands = _build_parser()._subparsers._group_actions[0].choices
    for command in ("solve", "bench"):
        action = next(a for a in commands[command]._actions
                      if a.dest == "deadline_oracle")
        assert sorted(action.choices) == sorted(DEADLINE_ORACLES), command
        for name in action.choices:
            assert deadline_oracle_by_name(name, EXACT_ORACLE).spec.name == name
