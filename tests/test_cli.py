"""Wire formats and the command-line surface."""

import json
from fractions import Fraction

import pytest

import centerwalk as cw
from centerwalk import cli
from centerwalk import markov_graph as mg
from centerwalk import serialization as ser
from centerwalk import weights
from centerwalk.cli import main
from centerwalk.markov_graph import MAX_SUPPORT
from centerwalk.weights import parse_weight
from conftest import under_hash_seeds


def triangle_graph_obj():
    return {
        "vertices": [0, 1, 2],
        "edges": [
            {"src": 0, "dst": 1, "w": "1"},
            {"src": 1, "dst": 2, "w": "1"},
            {"src": 2, "dst": 0, "w": "1"},
        ],
    }


def triangle_dec_obj():
    return {"cycles": [{"vertices": [0, 1, 2, 0], "weight": "1"}]}


def two_cycle_obj(x, y, vertices=False):
    """The two-cycle x -> y -> x as a graph (with ``vertices``) or as a flow."""
    obj = {"edges": [{"src": x, "dst": y, "w": "1"}, {"src": y, "dst": x, "w": "1"}]}
    if vertices:
        obj["vertices"] = [x, y]
    return obj


def test_kernel_json_roundtrip(zwalk):
    obj = ser.kernel_to_obj(zwalk)
    back = ser.kernel_from_obj(obj)
    assert back.window == zwalk.window
    for x in zwalk.window:
        assert dict(back.row(x)) == dict(zwalk.row(x))


def test_kernel_json_roundtrip_keeps_row_order():
    k = cw.step_kernel({1: Fraction(2, 3), -2: Fraction(1, 3)}, radius=12)
    back = ser.kernel_from_obj(ser.kernel_to_obj(k))
    assert back.sorted_vertices() == k.sorted_vertices()
    for x in k.window:
        assert list(back.row(x)) == list(k.row(x)), x


def test_kernel_json_tuple_vertices():
    k = cw.cayley_kernel(cw.IntegerLattice(2), ((1, 0), (-1, 0), (0, 1), (0, -1)), 3)
    back = ser.kernel_from_obj(ser.kernel_to_obj(k))
    assert back.window == k.window


def test_decomposition_roundtrip(zwalk_dec):
    back = ser.decomposition_from_obj(ser.decomposition_to_obj(zwalk_dec))
    assert back.coverage() == zwalk_dec.coverage()
    assert all(isinstance(w, Fraction) for _, w in back)


def test_malformed_objects_raise_parse_errors():
    with pytest.raises(cw.InputParseError):
        ser.kernel_from_obj({"edges": []})
    with pytest.raises(cw.InputParseError):
        ser.kernel_from_obj({"vertices": [0], "edges": [{"src": 9, "dst": 0, "w": "1"}]})
    with pytest.raises(cw.InputParseError):
        ser.decomposition_from_obj({"cycles": [{"vertices": [0]}]})
    # labels are ints, strings or lists of labels, and one graph's labels must compare
    assert ser.decode_vertex([1, ["a", [2]]]) == (1, ("a", (2,)))
    for label in (True, None, 1.5, {"a": 1}, [0, False]):
        with pytest.raises(ValueError):
            ser.decode_vertex(label)
        with pytest.raises(cw.InputParseError):
            ser.decomposition_from_obj({"cycles": [{"vertices": [0, label, 0], "weight": "1"}]})
    with pytest.raises(cw.InputParseError):
        ser.kernel_from_obj({"vertices": [[0, 1]], "edges": [{"src": [0, 1], "dst": [0, "b"], "w": "1"}]})
    with pytest.raises(cw.InputParseError):
        ser.flow_from_obj(two_cycle_obj([0], ["a"]))


def test_canonical_json_fractions_and_tuple_keys():
    blob = ser.canonical_json_bytes({"a": Fraction(2, 3), (1, (0,)): 5})
    assert b"2/3" in blob
    again = ser.canonical_json_bytes({(1, (0,)): 5, "a": Fraction(2, 3)})
    assert blob == again


def run_cli(tmp_path, *argv, expect=0):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    assert code == expect, f"exit {code} for {argv}"
    if code == 0:
        return json.loads(out.read_text())
    return None


def test_cli_centering_verify_triangle(tmp_path):
    graph = tmp_path / "tri.json"
    dec = tmp_path / "tri_dec.json"
    graph.write_text(json.dumps(triangle_graph_obj()))
    dec.write_text(json.dumps(triangle_dec_obj()))
    report = run_cli(tmp_path, "centering", "verify", "--graph", str(graph), "--dec", str(dec))
    assert report["results"]["valid"] is True
    assert report["results"]["max_abs_residual"] == "0"
    assert report["command"] == "centering verify"


def test_cli_centering_reversible_and_from_flow(tmp_path):
    graph = {
        "vertices": [0, 1],
        "edges": [
            {"src": 0, "dst": 1, "w": "1"},
            {"src": 1, "dst": 0, "w": "1"},
        ],
    }
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph))
    dec_out = tmp_path / "dec.json"
    report = run_cli(tmp_path, "centering", "reversible", "--graph", str(gpath),
                     "--dec-out", str(dec_out))
    assert report["results"]["cycles"] == 1
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps(triangle_graph_obj()))
    report = run_cli(tmp_path, "centering", "from-flow", "--flow", str(flow), "--max-len", "3")
    assert report["results"]["exceeds_max_len"] is False
    assert report["results"]["cycles"] == 1


def test_cli_json_number_weights_stay_floats(tmp_path):
    # a simple random walk on a 4-ring, its weights given as JSON numbers
    ring = {"vertices": [0, 1, 2, 3], "edges": [
        {"src": x, "dst": (x + s) % 4, "w": 0.5} for x in range(4) for s in (1, -1)]}
    gpath, dec_out = tmp_path / "ring.json", tmp_path / "dec.json"
    gpath.write_text(json.dumps(ring))
    run_cli(tmp_path, "centering", "reversible", "--graph", str(gpath), "--dec-out", str(dec_out))
    cycles = json.loads(dec_out.read_text())["cycles"]
    assert cycles and all(c["weight"] == 0.5 for c in cycles)
    report = run_cli(tmp_path, "centering", "verify", "--graph", str(gpath), "--dec", str(dec_out))
    assert report["results"]["valid"] is True
    assert report["results"]["max_abs_residual"] == 0.0
    for literal in (True, None):
        with pytest.raises(ValueError):
            parse_weight(literal)


def test_cli_group_commands(tmp_path):
    report = run_cli(tmp_path, "group", "c1-search", "--group", "f2",
                     "--gens", "a,A,b,B,BB,ababAA", "--n-max", "1")
    assert report["results"]["status"] == "not_found"
    report = run_cli(tmp_path, "group", "c2-check", "--group", "f2",
                     "--gens", "a,A,b,B,BB,ababAA")
    assert report["results"]["holds"] is True
    report = run_cli(tmp_path, "group", "c1-search", "--group", "z:2",
                     "--gens", "[1,0],[-1,0],[0,1],[0,-1]", "--n-max", "1")
    assert report["results"]["status"] == "witness"
    assert report["results"]["witness"]["n"] == 1
    report = run_cli(tmp_path, "group", "dist", "--group", "heisenberg",
                     "--gens", "[1,0,0],[0,1,0],[-1,0,0],[0,-1,0]",
                     "--element", "[0,0,1]", "--radius", "6")
    assert report["results"]["distance"] == 4


def test_cli_walk_commands(tmp_path):
    report = run_cli(tmp_path, "walk", "evolve", "--group", "z:1",
                     "--gens", "[1],[1],[-2]", "--tmax", "6")
    assert report["results"]["trace"][3]["p_id"] == "4/9"
    report = run_cli(tmp_path, "walk", "cv-fit", "--group", "z:1",
                     "--gens", "[1],[1],[-2]", "--tmax", "16")
    assert report["results"]["violated"] is False
    assert report["results"]["c_star"] > 1
    # the minimal constant, about 9.6e12, lies above the 1e12 ceiling of the former bisection
    report = run_cli(tmp_path, "walk", "cv-fit", "--group", "z:1",
                     "--gens", "[1],[-1],[1]", "--tmax", "8", "--d-exp=30")
    assert report["results"]["violated"] is False and report["results"]["min_margin"] >= 0
    assert isinstance(report["results"]["c_star"], float) and report["results"]["c_star"] > 1e12
    report = run_cli(tmp_path, "walk", "escape", "--group", "z:1",
                     "--gens", "[1],[1],[-2]", "--alpha", "1/2", "--times", "4,8")
    trace = report["results"]["trace"]
    assert [row["t"] for row in trace] == [4, 8]
    report = run_cli(tmp_path, "walk", "speed", "--group", "z:1",
                     "--gens", "[1],[1],[-1]", "--t", "500", "--paths", "50", "--seed", "4")
    assert abs(report["results"]["speed"] - 1 / 3) < 0.05
    report = run_cli(tmp_path, "walk", "entropy", "--group", "z:1",
                     "--gens", "[1],[1],[-2]", "--t", "8", "--paths", "200", "--seed", "4")
    assert report["results"]["entropy"] > 0
    report = run_cli(tmp_path, "walk", "volume", "--group", "f2",
                     "--gens", "a,A,b,B", "--tmax", "4")
    assert report["results"]["volume"] == [1, 5, 17, 53, 161]


def test_cli_walk_volume_budget(tmp_path, capsys):
    volume = ["walk", "volume", "--group", "f2", "--gens", "a,A,b,B", "--tmax"]
    # the radius-4 ball has exactly 161 elements
    assert run_cli(tmp_path, *volume, "4", "--max-support", "161")["results"]["volume"][-1] == 161
    for argv in (volume + ["4", "--max-support", "160"], volume + ["40", "--max-support", "1000"]):
        assert main(argv) == 5, argv
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "support_overflow" and err["message"]
    assert main(volume[:2] + ["--help"]) == 0
    assert f"(default {MAX_SUPPORT})" in " ".join(capsys.readouterr().out.split())


def test_cli_law_commands_share_the_budget(capsys):
    for action in ("evolve", "cv-fit", "escape", "entropy", "volume"):
        assert main(["walk", action, "--help"]) == 0
        assert f"(default {MAX_SUPPORT})" in " ".join(capsys.readouterr().out.split()), action
    assert main(["walk", "speed", "--help"]) == 0
    assert "--max-support" not in capsys.readouterr().out


def test_cli_searches_and_windows_end_at_support_overflow(monkeypatch, capsys):
    # the same commands pass the full budgets (1 M searched, 200 k window vertices)
    # in a few seconds; smaller budgets keep this test small
    monkeypatch.setitem(mg.bfs.__kwdefaults__, "max_support", 2000)
    monkeypatch.setattr(cli.gw, "MAX_WINDOW", 2000)
    f2_window = ["--group", "f2", "--gens", "a,A,b,B", "--radius", "30"]
    for argv in (["group", "dist", "--group", "heisenberg", "--gens", "[1,0,0],[0,1,0]",
                  "--element", "[0,0,1000]", "--radius", "200"],
                 ["dirichlet", "sector", *f2_window, "--seed", "0"],
                 ["green", "compare", *f2_window, "--seed", "0"]):
        assert main(argv) == 5, argv
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "support_overflow", argv
        assert "passed 2000 vertices" in err["message"] and "radius" in err["message"], argv
    # the kernel commands take no budget flag
    for argv in (["dirichlet", "sector", "--help"], ["green", "compare", "--help"]):
        assert main(argv) == 0
        assert "--max-support" not in capsys.readouterr().out


def test_cli_removed_flags_are_parse_errors(capsys):
    z = ["--group", "z:1", "--gens", "[1],[-1]"]
    sampled = z + ["--t", "4", "--paths", "5", "--seed", "1"]
    for argv in (["walk", "evolve", *z, "--tmax", "2", "--tol", "1e-9"],
                 ["walk", "speed", *sampled, "--prune-eps", "0.5"],
                 ["walk", "speed", *sampled, "--max-support", "10"],
                 ["walk", "entropy", *sampled, "--prune-eps", "0.5"],
                 ["centering", "verify", "--graph", "g.json", "--dec", "d.json", "--tol", "1e-9"],
                 ["centering", "reversible", "--graph", "g.json", "--tol", "1e-9"],
                 ["centering", "from-flow", "--flow", "f.json", "--max-len", "3", "--tol", "1e-9"],
                 ["f2", "reduce", "--arrangement", "1,6,3,5,2,4", "--tol", "1"],
                 ["green", "compare", *z, "--radius", "5", "--seed", "1", "--ball-radius", "4"]):
        assert main(argv) == 2, argv
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "parse_error" and "unrecognized arguments" in err["message"], argv


def test_cli_dirichlet_and_green(tmp_path):
    report = run_cli(tmp_path, "dirichlet", "poincare", "--k", "2,3,4")
    assert report["results"]["constants"]["2"] == 0.25
    report = run_cli(tmp_path, "dirichlet", "sector", "--group", "z:1",
                     "--gens", "[1],[1],[-2]", "--radius", "12",
                     "--trials", "60", "--seed", "2")
    assert report["results"]["sector_ratio"] > 1.0
    graph = tmp_path / "tri.json"
    dec = tmp_path / "dec.json"
    graph.write_text(json.dumps(triangle_graph_obj()))
    dec.write_text(json.dumps(triangle_dec_obj()))
    report = run_cli(tmp_path, "green", "compare", "--graph", str(graph),
                     "--killing", "1/10", "--dec", str(dec),
                     "--trials", "200", "--seed", "2")
    assert report["results"]["g_le_g0"] is True
    assert report["results"]["g0_le_m2_g"] is True


def test_cli_green_compare_on_a_group_window(tmp_path):
    # without --dec the witness search builds the decomposition; the ball is the
    # window's depth >= 2 part, the word ball of radius --radius - 1, so the
    # comparison matches the library's on that ball in a larger window
    gens = ((1,), (1,), (-2,))
    report = run_cli(tmp_path, "green", "compare", "--group", "z:1", "--gens", "[1],[1],[-2]",
                     "--radius", "9", "--trials", "50", "--seed", "1")
    z1 = cw.IntegerLattice(1)
    witness = cw.c1_search(z1, gens, n_max=cli.GREEN_N_MAX).witness
    dec = cw.translated_cycle_decomposition(z1, gens, witness, 12)
    expected = cw.green_comparison(cw.cayley_kernel(z1, gens, 12), mg.Measure.counting(), dec,
                                   cw.word_ball(z1, gens, 8), trials=50, seed=1)
    assert report["results"] == {
        "sector_ratio": expected.sector_m, "mode": "absorbing_ball", "g_le_g0": expected.holds_upper,
        "g0_le_m2_g": expected.holds_lower, "interior_points": len(expected.interior)}
    assert report["results"]["interior_points"] == 22


def test_cli_sector_with_supplied_pair(tmp_path):
    graph = tmp_path / "tri.json"
    graph.write_text(json.dumps(triangle_graph_obj()))
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    f.write_text(json.dumps({"1": 1.0}))
    g.write_text(json.dumps({"0": 1.0}))
    report = run_cli(tmp_path, "dirichlet", "sector", "--graph", str(graph),
                     "--f", str(f), "--g", str(g))
    # E(delta_1, delta_0) = -q(0,1) = -1 on the rotation; both diagonals are 1
    assert abs(report["results"]["sector_ratio"] - 1.0) < 1e-12
    assert report["results"]["e_fg"] == -1.0
    # E(f,f) E(g,g) leaves the float range although each energy is finite: the ratio is still 1
    for value in (1e154, 1e-160):
        f.write_text(json.dumps({"1": value}))
        report = run_cli(tmp_path, "dirichlet", "sector", "--graph", str(graph), "--f", str(f), "--g", str(f))
        assert report["results"]["sector_ratio"] == 1.0


def test_cli_sector_names_a_vertex_outside_the_window(tmp_path, capsys):
    # the z:1 window's labels are [x]; the key "0" is the int 0, which is not in it at all
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"0": 1.0}))
    assert main(["dirichlet", "sector", "--group", "z:1", "--gens", "[1],[-1]", "--radius", "10",
                 "--f", str(f), "--g", str(f)]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "validation_error"
    assert error["message"] == "support vertex 0 is outside the kernel window"


def test_cli_config_echoes_only_flags_the_mode_reads(tmp_path):
    graph, dec = tmp_path / "tri.json", tmp_path / "dec.json"
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    graph.write_text(json.dumps(triangle_graph_obj()))
    dec.write_text(json.dumps(triangle_dec_obj()))
    f.write_text(json.dumps({"1": 1.0}))
    g.write_text(json.dumps({"0": 1.0}))
    # the supplied pair needs no seed
    report = run_cli(tmp_path, "dirichlet", "sector", "--graph", str(graph), "--f", str(f), "--g", str(g))
    assert report["results"]["e_fg"] == -1.0
    assert not {"seed", "trials", "dec"} & set(report["config"])
    report = run_cli(tmp_path, "dirichlet", "sector", "--group", "z:1", "--gens", "[1],[1],[-2]",
                     "--radius", "6", "--seed", "2")
    assert report["results"]["trials"] == cw.dirichlet_forms.SECTOR_TRIALS
    report = run_cli(tmp_path, "green", "compare", "--graph", str(graph), "--killing", "1/10",
                     "--dec", str(dec), "--trials", "20", "--seed", "2")
    assert "n_max" not in report["config"]


def test_cli_fit_and_escape_use_the_closed_form_metric(tmp_path, monkeypatch, capsys):
    f2 = ["--group", "f2", "--gens", "a,A,b,B", "--prune-eps", "1e-3"]
    heis = ["--group", "heisenberg", "--gens", "[1,0,0],[0,1,0],[-1,0,0],[0,-1,0]",
            "--prune-eps", "1e-3", "--max-support", "1000"]
    # the F2 ball of radius 13 has 3.2 M elements, past the default budget
    with monkeypatch.context() as patch:
        patch.setattr(cli.gw, "word_ball", None)
        report = run_cli(tmp_path, "walk", "cv-fit", *f2, "--tmax", "13")
        assert report["results"]["approximate"] is True and report["results"]["violated"] is False
        report = run_cli(tmp_path, "walk", "escape", *f2, "--alpha", "1/4", "--times", "6,13")
        assert [row["t"] for row in report["results"]["trace"]] == [6, 13]
    # no closed form for the Heisenberg group: its ball passes the budget that its pruned laws fit in
    for argv in (["walk", "cv-fit", *heis, "--tmax", "12"],
                 ["walk", "escape", *heis, "--alpha", "1/4", "--times", "12"]):
        assert main(argv) == 5, argv
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "support_overflow"
    assert main(["walk", "evolve", *heis, "--tmax", "12", "--out", str(tmp_path / "laws.json")]) == 0


def test_cli_escape_flags_a_pruned_law_approximate(tmp_path):
    # pruning at 1e-3 drops every F2 atom at distance >= 5 by t = 10, so the tail is exactly 0
    escape = ["walk", "escape", "--group", "f2", "--gens", "a,A,b,B", "--alpha", "1/2", "--times", "10"]
    exact = run_cli(tmp_path, *escape)["results"]
    assert exact["approximate"] is False and exact["trace"] == [{"t": 10, "p": "41067/65536"}]
    pruned = run_cli(tmp_path, *escape, "--prune-eps", "1e-3")["results"]
    assert pruned["approximate"] is True and pruned["trace"] == [{"t": 10, "p": "0"}]


def test_cli_pruning_that_drops_nothing_changes_nothing(tmp_path):
    evolve = ["walk", "evolve", "--group", "z:2", "--gens", "[1,0],[-1,0],[0,1],[0,-1]", "--tmax", "6"]
    exact = run_cli(tmp_path, *evolve)["results"]
    kept = run_cli(tmp_path, *evolve, "--prune-eps", "1e-300")["results"]
    assert kept["approximate"] is False
    assert ser.canonical_json_bytes(kept) == ser.canonical_json_bytes(exact)
    # a pruned law is exact too: "p/q" masses that sum to exactly 1
    pruned = run_cli(tmp_path, *evolve, "--prune-eps", "1e-2")["results"]
    assert pruned["approximate"] is True and len(pruned["final"]) < len(exact["final"])
    assert all(row["mass"] == "1" for row in pruned["trace"])
    assert sum(map(Fraction, pruned["final"].values())) == 1


def test_cli_f2_reduce(tmp_path):
    report = run_cli(tmp_path, "f2", "reduce", "--arrangement", "1,6,3,5,2,4")
    assert report["results"]["reduced_word"] == "aababAABAB"
    assert report["results"]["acyclic"] is True


def test_cli_csv_output(tmp_path):
    out = tmp_path / "out.csv"
    code = main(["walk", "cv-fit", "--group", "z:1", "--gens", "[1],[1],[-2]",
                 "--tmax", "4", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_label,mu,bound,margin"
    assert len(lines) > 4
    out2 = tmp_path / "vol.csv"
    main(["walk", "volume", "--group", "z:1", "--gens", "[1],[-1]",
          "--tmax", "2", "--format", "csv", "--out", str(out2)])
    assert out2.read_text().splitlines() == ["t,V", "0,1", "1,3", "2,5"]


def test_cli_csv_fallback_key_value(tmp_path):
    graph = tmp_path / "tri.json"
    dec = tmp_path / "dec.json"
    graph.write_text(json.dumps(triangle_graph_obj()))
    dec.write_text(json.dumps(triangle_dec_obj()))
    out = tmp_path / "verify.csv"
    code = main(["centering", "verify", "--graph", str(graph), "--dec", str(dec),
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    assert "valid,true" in lines


def test_cli_error_paths(tmp_path, capsys):
    code = main(["group", "c2-check", "--group", "nosuch", "--gens", "x"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == "parse_error"

    code = main(["group", "c1-search", "--group", "f2",
                 "--gens", "a,A,b,B,BB,ababAA", "--n-max", "2", "--budget", "50"])
    assert code == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == "budget_exhausted"

    code = main(["walk", "entropy", "--group", "f2", "--gens", "a,A,b,B",
                 "--t", "9", "--paths", "5", "--seed", "1", "--max-support", "100"])
    assert code == 5
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["code"] == "support_overflow"

    code = main(["walk", "bogus"])
    assert code == 2


def test_cli_input_errors_are_json(tmp_path, capsys):
    bad_weight = triangle_graph_obj()
    bad_weight["edges"][0]["w"] = "x/y"
    huge_weight = triangle_graph_obj()
    huge_weight["edges"][0]["w"] = "1e1000000000"
    deep = "[" * 200_000 + "0" + "]" * 200_000
    (tmp_path / "deep.json").write_text('{"vertices": [0, ' + deep + '], "edges": []}')
    (tmp_path / "deep_f.json").write_text(json.dumps({deep: 1.0}))
    (tmp_path / "long_int.json").write_text('{"vertices": [0], "edges": [{"src": 0, "dst": 0, "w": 1'
                                           + "0" * weights.MAX_DIGITS + "}]}")
    half_weights = triangle_graph_obj()
    for edge in half_weights["edges"]:
        edge["w"] = "1/2"
    (tmp_path / "latin1.json").write_bytes('{"vertices": ["\u00e9"], "edges": []}'.encode("latin-1"))

    def nest(label):
        for _ in range(ser.MAX_LABEL_DEPTH + 1):
            label = [label]
        return label

    files = {
        "huge_weight.json": huge_weight,
        "deep_label.json": two_cycle_obj(nest(0), nest(1), vertices=True),
        "tri.json": triangle_graph_obj(),
        "tri_dec.json": triangle_dec_obj(),
        "bad_weight.json": bad_weight,
        "bad_f.json": {"not json": 1.0},
        "f.json": {"1": 1.0},
        "g.json": {"0": 1.0},
        "zero_f.json": {"[0]": 0.0},
        "unit_g.json": {"[0]": 1.0},
        "nan_f.json": {"[0]": "nan"},
        "inf_f.json": {"[0]": "inf"},
        "true_f.json": {"[0]": True},
        "huge_f.json": {"[0]": 1e308},
        # every edge enters 2, so the counting measure is not excessive and E(f,f) = -1/2
        "sink.json": {"vertices": [0, 1, 2], "edges": [{"src": x, "dst": 2, "w": "1"} for x in (0, 1, 2)]},
        "sink_f.json": {"0": 0.5, "1": 0.5, "2": 1.0},
        "sink_g.json": {"0": 1.0},
        # labels that Python's own < cannot order, or that are not ints, strings or lists
        "mixed.json": two_cycle_obj(0, "a", vertices=True),
        "true.json": two_cycle_obj(True, 2, vertices=True),
        "null.json": two_cycle_obj(None, 2, vertices=True),
        "float.json": two_cycle_obj(1.5, 2, vertices=True),
        "mixed_flow.json": two_cycle_obj(0, "a"),
        # every row sums to 1/2, so only a killed kernel is valid
        "half.json": {**half_weights, "substochastic": "no"},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    escape = ["walk", "escape", "--group", "z:1", "--gens", "[1],[-1]"]
    evolve = ["walk", "evolve", "--group", "z:1", "--gens", "[1],[-1]", "--tmax", "2"]
    volume = ["walk", "volume", "--group", "z:1", "--gens", "[1],[-1]", "--tmax", "2"]
    entropy = ["walk", "entropy", "--group", "z:1", "--gens", "[1],[-1]", "--t", "2",
               "--paths", "5", "--seed", "1"]
    z_kernel = ["--group", "z:1", "--gens", "[1],[1],[-2]", "--radius", "6", "--seed", "1"]
    cv_fit = ["walk", "cv-fit", "--group", "z:1", "--gens", "[1],[-1]", "--tmax", "4"]
    cases = [
        (escape + ["--alpha", "abc", "--times", "4"], 2, "parse_error"),
        (escape + ["--alpha", "1/2", "--times", ","], 2, "parse_error"),
        (escape + ["--alpha", "1/2", "--times=-1,2"], 2, "parse_error"),
        # Fraction("1eN") builds 10**N: these ended in internal_error after 11 s, or hung
        (escape + ["--alpha", "1e10000000", "--times", "3"], 2, "parse_error"),
        (escape + ["--alpha", "1e1000000000", "--times", "3"], 2, "parse_error"),
        (escape + ["--alpha", "1" * 5000 + "e-4999", "--times", "3"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--killing", "1e-1000000000", "--seed", "1"],
         2, "parse_error"),
        (["centering", "reversible", "--graph", "huge_weight.json"], 2, "parse_error"),
        (["centering", "reversible", "--graph", "long_int.json"], 2, "parse_error"),
        (["centering", "reversible", "--graph", "latin1.json"], 2, "parse_error"),
        # nesting that used to end in internal_error with a RecursionError
        (["centering", "reversible", "--graph", "deep.json"], 2, "parse_error"),
        (["centering", "reversible", "--graph", "deep_label.json"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--f", "deep_f.json", "--g", "deep_f.json"],
         2, "parse_error"),
        (["centering", "verify", "--graph", "bad_weight.json", "--dec", "tri_dec.json"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--killing", "abc", "--seed", "1"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--f", "bad_f.json", "--g", "bad_f.json"],
         2, "parse_error"),
        # a negative radius used to search the whole group
        (["group", "dist", "--group", "z:2", "--gens", "[1,0],[-1,0]", "--element", "[0,1]",
          "--radius=-1"], 3, "validation_error"),
        # the unkilled 3-rotation: I - Q is singular
        (["green", "compare", "--graph", "tri.json", "--dec", "tri_dec.json",
          "--trials", "10", "--seed", "1"], 3, "validation_error"),
        # a pruning threshold that prunes nothing used to switch to float mode silently
        (evolve + ["--prune-eps", "0"], 3, "validation_error"),
        (evolve + ["--prune-eps=-1"], 3, "validation_error"),
        (evolve + ["--prune-eps", "nan"], 3, "validation_error"),
        # every atom at t = 1 has mass 1/2
        (evolve + ["--prune-eps", "0.9"], 3, "validation_error"),
        (cv_fit + ["--d-exp", "nan"], 2, "parse_error"),
        (cv_fit + ["--d-exp", "inf"], 2, "parse_error"),
        # a negative horizon used to give the t = 0 law, a negative budget support_overflow
        (evolve[:-1] + ["-3"], 3, "validation_error"),
        (evolve + ["--max-support", "0"], 3, "validation_error"),
        (volume + ["--max-support=-1"], 3, "validation_error"),
        (entropy + ["--max-support", "0"], 3, "validation_error"),
        # a kernel source flag that the chosen source cannot use used to be ignored
        (["dirichlet", "sector", *z_kernel, "--killing", "abc"], 2, "parse_error"),
        (["dirichlet", "sector", *z_kernel, "--killing", "1/10"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--gens", "[1]", "--seed", "1"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--radius", "3", "--seed", "1"], 2, "parse_error"),
        (["green", "compare", "--graph", "tri.json", *z_kernel, "--dec", "tri_dec.json"], 2, "parse_error"),
        # a flag the chosen mode never reads used to be accepted and echoed in config
        (["dirichlet", "sector", "--graph", "tri.json", "--f", "f.json", "--g", "g.json",
          "--dec", "missing.json"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--f", "f.json", "--g", "g.json",
          "--trials", "7"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json", "--f", "f.json", "--g", "g.json",
          "--seed", "0"], 2, "parse_error"),
        (["dirichlet", "sector", "--graph", "tri.json"], 2, "parse_error"),
        # a pair with a zero-energy function used to divide by zero
        (["dirichlet", "sector", "--group", "z:1", "--gens", "[1],[-1]", "--radius", "10",
          "--f", "zero_f.json", "--g", "unit_g.json"], 3, "validation_error"),
        # these pairs used to exit 0 with a NaN ratio, or read true as 1.0
        (["dirichlet", "sector", "--group", "z:1", "--gens", "[1],[-1]", "--radius", "10",
          "--f", "nan_f.json", "--g", "unit_g.json"], 2, "parse_error"),
        (["dirichlet", "sector", "--group", "z:1", "--gens", "[1],[-1]", "--radius", "10",
          "--f", "unit_g.json", "--g", "inf_f.json"], 2, "parse_error"),
        (["dirichlet", "sector", "--group", "z:1", "--gens", "[1],[-1]", "--radius", "10",
          "--f", "true_f.json", "--g", "unit_g.json"], 2, "parse_error"),
        # finite values whose energies overflow
        (["dirichlet", "sector", "--group", "z:1", "--gens", "[1],[-1]", "--radius", "10",
          "--f", "huge_f.json", "--g", "huge_f.json"], 3, "validation_error"),
        # a negative energy used to end in internal_error
        (["dirichlet", "sector", "--graph", "sink.json", "--f", "sink_f.json", "--g", "sink_g.json"],
         3, "validation_error"),
        (["green", "compare", "--graph", "tri.json", "--killing", "1/10", "--dec", "tri_dec.json",
          "--seed", "1", "--n-max", "9"], 2, "parse_error"),
        (["green", "compare", *z_kernel, "--dec", "tri_dec.json", "--n-max", "9"], 2, "parse_error"),
        # these labels used to run, ordered by a second label order of their own
        (["centering", "reversible", "--graph", "mixed.json"], 2, "parse_error"),
        (["centering", "reversible", "--graph", "true.json"], 2, "parse_error"),
        (["centering", "reversible", "--graph", "null.json"], 2, "parse_error"),
        (["centering", "reversible", "--graph", "float.json"], 2, "parse_error"),
        (["centering", "from-flow", "--flow", "mixed_flow.json", "--max-len", "2"], 2, "parse_error"),
        # a non-boolean "substochastic" used to be read by truthiness, so "no" killed the kernel
        (["dirichlet", "sector", "--graph", "half.json", "--seed", "0"], 2, "parse_error"),
        (["green", "compare", "--graph", "half.json", "--dec", "tri_dec.json", "--seed", "1"],
         2, "parse_error"),
        # a negative radius used to be ignored by the closed-form metric
        (["walk", "speed", "--group", "z:1", "--gens", "[1],[-1]", "--t", "4", "--paths", "2",
          "--seed", "1", "--radius=-1"], 3, "validation_error"),
        # a node budget below 1 used to end in budget_exhausted
        (["group", "c1-search", "--group", "f2", "--gens", "a,A", "--budget", "0"], 3, "validation_error"),
        (["group", "c1-search", "--group", "f2", "--gens", "a,A", "--budget=-5"], 3, "validation_error"),
    ]
    for argv, exit_code, error_code in cases:
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == exit_code, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["code"] == error_code, argv
        assert err["error"]["message"]


def test_rational_literals_are_bounded():
    limit = weights.MAX_DIGITS
    assert weights.parse_rational(f"1e{limit}") == 10 ** limit
    assert weights.parse_rational(f" 3e-{limit} ") == Fraction(3, 10 ** limit)
    assert parse_weight("1" * limit) == int("1" * limit)
    # Fraction reads any Unicode decimal digits: "\u0669" is ARABIC-INDIC DIGIT NINE
    for text in (f"1e{limit + 1}", f"1E-{limit + 1}", "1e" + "\u0669" * 9, "1" * (limit + 1),
                 "1/" + "1" * limit, "x/y", "1/0", ""):
        with pytest.raises(ValueError):
            weights.parse_rational(text)
    with pytest.raises(ValueError):
        parse_weight("1e1000000000")


def test_cli_prune_cut_names_t_and_eps(capsys):
    assert main(["walk", "evolve", "--group", "z:1", "--gens", "[1],[-1]", "--tmax", "2",
                 "--prune-eps", "0.9"]) == 3
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "t=1" in message and "0.9" in message


def test_cli_internal_error_is_json(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "cmd_walk_volume", boom)
    assert main(["walk", "volume", "--group", "z:1", "--gens", "[1],[-1]", "--tmax", "2"]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"]["code"] == "internal_error"
    assert "RuntimeError: unexpected state" in err["error"]["message"]
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_determinism(tmp_path):
    args = ["dirichlet", "sector", "--group", "z:1", "--gens", "[1],[1],[-2]",
            "--radius", "10", "--trials", "40", "--seed", "11"]
    r1 = run_cli(tmp_path, *args)
    r2 = run_cli(tmp_path, *args)
    assert ser.canonical_json_bytes(r1["results"]) == ser.canonical_json_bytes(r2["results"])


def test_cli_results_independent_of_hash_seed(tmp_path):
    # string labels hash differently under each PYTHONHASHSEED, so any set or
    # dict order that leaks into a result shows up as a byte difference
    n = 40
    name = [f"v{i:02d}" for i in range(n)]
    graph = {"vertices": name, "edges": [
        e for i in range(n) for e in ({"src": name[i], "dst": name[(i + 1) % n], "w": "2/3"},
                                      {"src": name[i], "dst": name[(i - 2) % n], "w": "1/3"})]}
    dec = {"cycles": [{"vertices": [name[i], name[(i + 1) % n], name[(i + 2) % n], name[i]],
                       "weight": "1/3"} for i in range(n)]}
    (tmp_path / "ring.json").write_text(json.dumps(graph))
    (tmp_path / "ring_dec.json").write_text(json.dumps(dec))
    commands = {
        "verify": ["centering", "verify", "--graph", "ring.json", "--dec", "ring_dec.json"],
        "sector": ["dirichlet", "sector", "--graph", "ring.json", "--dec", "ring_dec.json",
                   "--killing", "1/10", "--trials", "5", "--seed", "3"],
        # the killed ring's rows used to be stored in set order
        "green": ["green", "compare", "--graph", "ring.json", "--killing", "1/10", "--dec", "ring_dec.json",
                  "--trials", "5", "--seed", "3"],
        # the exact laws come out of the evolution engine's interned ids
        "evolve": ["walk", "evolve", "--group", "f2", "--gens", "a,A,b,B", "--tmax", "6"],
        "entropy": ["walk", "entropy", "--group", "f2", "--gens", "a,A,b,B", "--t", "6",
                    "--paths", "40", "--seed", "5"],
    }
    # one interpreter per hash seed runs every command
    script = ("import json, sys; from centerwalk.cli import main; "
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    batch = [argv + ["--out", f"{label}.json"] for label, argv in commands.items()]
    seen = {}
    for hash_seed, proc in enumerate(under_hash_seeds(["-c", script, json.dumps(batch)], cwd=tmp_path)):
        assert proc.returncode == 0, proc.stderr
        for label in commands:
            results = json.loads((tmp_path / f"{label}.json").read_text())["results"]
            blob = ser.canonical_json_bytes(results)
            assert seen.setdefault(label, blob) == blob, (label, hash_seed)
    assert json.loads(seen["verify"])["valid"] is True


def test_cli_error_message_independent_of_hash_seed(tmp_path):
    # a string ring whose vertices v0, v3, v6 and v9 leak out of the window: the
    # shallow vertex the error names was once taken from a set
    n = 10
    name = [f"v{i}" for i in range(n)]
    graph = {"vertices": name, "edges": [
        e for i in range(n) for e in ({"src": name[i], "dst": name[(i + 1) % n], "w": "1/2"},
                                      {"src": name[i], "dst": f"out{i}" if i % 3 == 0 else name[i - 1],
                                       "w": "1/2"})]}
    (tmp_path / "leaky.json").write_text(json.dumps(graph))
    (tmp_path / "empty_dec.json").write_text(json.dumps({"cycles": []}))
    argv = ["-m", "centerwalk.cli", "green", "compare", "--graph", "leaky.json", "--dec", "empty_dec.json",
            "--trials", "5", "--seed", "1"]
    errors = set()
    for proc in under_hash_seeds(argv, cwd=tmp_path):
        assert proc.returncode == 3, proc.stderr
        errors.add(proc.stderr)
    assert len(errors) == 1
    assert "e.g. 'v0'" in json.loads(errors.pop())["error"]["message"]
