import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from grushko import verify
from grushko.cli import main
from grushko.trees import MarkedTree, caterpillar, enumerate_shapes
from grushko.verify import RunConfig, run_criterion
from grushko.visibility import CertificationError
from grushko.words import conjugate, generator, generators, reduce


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_words_reduce(capsys):
    code, out, _ = run_cli(capsys, "words", "reduce", "x1.x1")
    assert code == 0
    assert json.loads(out)["word"] == "ε"


def test_words_multiply(capsys):
    code, out, _ = run_cli(capsys, "words", "multiply", "x1.x2", "x2.x3")
    assert code == 0
    assert json.loads(out)["word"] == "x1*x3"


def test_words_reduce_without_a_word_exits_2(capsys):
    """argparse lets "-- --" through nargs="+" with an empty list."""
    with pytest.raises(SystemExit) as exc:
        main(["words", "reduce", "--", "--"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_fold_membership(capsys):
    code, out, err = run_cli(capsys, "fold", "--words", "x1.x2.x1", "--n", "2",
                             "--member", "x2")
    assert code == 0
    data = json.loads(out)
    assert data["mirrors"][1] == [2]
    assert "False" in err


def test_shapes_poset(capsys):
    code, out, err = run_cli(capsys, "shapes", "--n", "3", "--poset")
    assert code == 0
    data = json.loads(out)
    assert len(data["shapes"]) == 4
    assert data["longest_chain"] == 2


@pytest.mark.parametrize("flag, digest", [
    (None, "d9feb4f4a1780fdcabd649bfd6e988d177e750e2afef3062d79db0fcfc6f109f"),
    ("--up-to-relabeling", "52cbbf536f9f3cc45522c6ee2d522e20358edc82b386bd5bc79dc19972d19a1b"),
    ("--poset", "92536d6b83597b10a0b42bcbea08e242fe03f314fde264e4fb2ea812699a5193"),
], ids=["no-flag", "--up-to-relabeling", "--poset"])
def test_shapes_output_is_pinned(capsys, flag, digest):
    """The rank-4 shape list, its order and its vertex numbering, byte for byte."""
    code, out, _ = run_cli(capsys, "shapes", "--n", "4", *([flag] if flag else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


HOMOLOGY_FIXTURES = {
    "edge": {"vertices": [0, 1], "simplices": [[0, 1]]},
    "rp2": {"vertices": [], "simplices": [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
                                         [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]},
    "three_pieces": {"vertices": [7], "simplices": [[0, 1, 2], [3, 4]]},
    "open_edge": {"vertices": [], "simplices": [[0, 1]]},
    "empty": {"vertices": [], "simplices": []},
}


@pytest.mark.parametrize("name, digest", [
    ("edge", "4820ccd5896e86ba6b522f867c534a4b320b109002eeb7a98bfb95160db7d721"),
    ("rp2", "4a8ab2f2ef42c5262bc35bc6eaaac82777f620905aa38924194f177b0f8b471b"),
    ("three_pieces", "fde623c4f8c1c6f28f98fdd5eba302fdfb0edd414c0a296344865c9a70978fd6"),
    ("open_edge", "4820ccd5896e86ba6b522f867c534a4b320b109002eeb7a98bfb95160db7d721"),
    ("empty", "4cce6abfdb287027f2e3b143e662f5b9f3ae557ef86db182377cde6c43c04967"),
])
def test_homology_output_is_pinned(tmp_path, capsys, name, digest):
    """stdout and stderr of `homology --field F` for F = Q, 2, 3, byte for byte."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(HOMOLOGY_FIXTURES[name]))
    h = hashlib.sha256()
    for field in ("Q", "2", "3"):
        code, out, err = run_cli(capsys, "homology", "--in", str(path), "--field", field)
        assert code == 0
        h.update((out + err).encode())
    assert h.hexdigest() == digest


def test_visible_and_certify(tmp_path, capsys):
    tree_path = tmp_path / "t4.json"
    tree_path.write_text(caterpillar(4).to_json())
    code, out, _ = run_cli(capsys, "visible", "--tree", str(tree_path),
                           "--pair", "1", "--brute", "4")
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == ["W2[a=x1;b=x2;pair=1]"]
    assert data["brute_matches"]

    classes_path = tmp_path / "c.json"
    classes_path.write_text(json.dumps(data["classes"]))
    code, out, _ = run_cli(capsys, "certify", "--tree", str(tree_path),
                           "--classes", str(classes_path))
    assert code == 0
    assert json.loads(out)["basis"] == ["x1", "x2", "x3", "x4"]


INVISIBLE = ["W2[a=x1;b=x3*x2*x3;pair=1]"]
COLLISION = ["W2[a=x1;b=x2;pair=1]", "W2[a=x1;b=x3;pair=none]"]


@pytest.mark.parametrize("classes, message", [
    (INVISIBLE, "is not visible in this tree"),
    (COLLISION, "core collision across classes"),
])
def test_certify_failure_exits_1(tmp_path, capsys, classes, message):
    """A class set that does not certify is a verification failure: exit 1,
    an error line on stderr and nothing on stdout."""
    tree_path = tmp_path / "t3.json"
    tree_path.write_text(caterpillar(3).to_json())
    classes_path = tmp_path / "c.json"
    classes_path.write_text(json.dumps(classes))
    code, out, err = run_cli(capsys, "certify", "--tree", str(tree_path),
                             "--classes", str(classes_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_malformed_tree_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [,]}')
    with pytest.raises(SystemExit) as exc:
        main(["visible", "--tree", str(bad), "--pair", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_bp_build_and_report(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bp", "build", "--n", "4", "--unpaired",
                           "--radius", "0")
    assert code == 0
    sub_path = tmp_path / "sub.json"
    sub_path.write_text(out.strip())
    code, out, _ = run_cli(capsys, "bp", "report", "--in", str(sub_path))
    assert code == 0
    assert json.loads(out)["components"] == 3


def test_bp_build_paired_from_tree(tmp_path, capsys):
    tree_path = tmp_path / "t4.json"
    tree_path.write_text(caterpillar(4).to_json())
    code, out, _ = run_cli(capsys, "bp", "build", "--n", "4",
                           "--trees", str(tree_path))
    assert code == 0
    data = json.loads(out)
    assert data["ambient"] == "paired"
    assert len(data["elements"]) == 3


def test_gn_embed(capsys):
    code, out, _ = run_cli(capsys, "gn-embed", "--n", "4", "--words", "x1.x2")
    assert code == 0
    data = json.loads(out)
    assert data["images"][3] == "x2*x1*x4*x1*x2"


@pytest.mark.parametrize("phi3", ["[1,2,3]", '{"a":1}', '"x1"', "[x1", "[]"])
def test_gn_embed_bad_phi3_exits_2(capsys, phi3):
    code, out, err = exit_code(capsys, "gn-embed", "--n", "4", "--phi3", phi3)
    assert code == 2 and out == ""
    assert "--phi3" in err and "Traceback" not in err


def test_fold_bad_member_exits_2_before_output(capsys):
    code, out, err = exit_code(capsys, "fold", "--words", "x1", "--member", "x2")
    assert code == 2 and out == ""
    assert "out of range for rank 1" in err


def exit_code(capsys, *argv):
    """Exit code of the CLI, whether main returns it or argparse raises it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["shapes", "--n", "99"], ["shapes", "--n", "7", "--poset"],
                                  ["verify-all", "--n", "9"], ["verify-all", "--n", "6"]])
def test_rank_above_desk_scale_exits_2_at_once(capsys, argv):
    code, out, err = exit_code(capsys, *argv)
    assert code == 2 and out == ""
    # verify-all's budgets are stated for n <= 5
    bound = 5 if argv[0] == "verify-all" else 6
    assert f"desk scale exceeded: n <= {bound}" in err


def test_shapes_poset_and_up_to_relabeling_exclude_each_other(capsys):
    """The spine poset is over labeled shapes, so --up-to-relabeling cannot
    apply to it; argparse refuses the pair before any output."""
    code, out, err = exit_code(capsys, "shapes", "--n", "3", "--poset", "--up-to-relabeling")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize("argv", [["words", "reduce", "12", "--n", "0"],
                                  ["fold", "--words", "x1", "--n", "-1"],
                                  ["bp", "build", "--n", "0", "--unpaired"]])
def test_rank_flag_below_one_exits_2(capsys, argv):
    code, out, err = exit_code(capsys, *argv)
    assert code == 2 and out == ""
    assert "rank must be >= 1" in err


@pytest.mark.parametrize("n", ["2", "3"])
def test_gn_embed_rank_below_four_exits_2(capsys, n):
    code, out, err = exit_code(capsys, "gn-embed", "--n", n, "--words", "x1")
    assert code == 2 and out == ""
    assert "rank must be >= 4" in err


@pytest.mark.parametrize("argv, token", [(["words", "reduce", "x1 x-2"], "x-2"),
                                         (["words", "reduce", "x1 x-2", "--n", "3"], "x-2"),
                                         (["words", "reduce", "x0"], "x0"),
                                         (["fold", "--words", "x1,x-1"], "x-1"),
                                         (["fold", "--words", "x1,x0", "--n", "3"], "x0")])
def test_bad_letter_token_is_named(capsys, argv, token):
    code, out, err = exit_code(capsys, *argv)
    assert code == 2 and out == ""
    assert f"bad generator token '{token}'" in err and "out of range" not in err


def test_negative_brute_bound_exits_2(tmp_path, capsys):
    tree_path = tmp_path / "t4.json"
    tree_path.write_text(caterpillar(4).to_json())
    code, out, err = exit_code(capsys, "visible", "--tree", str(tree_path), "--pair", "1",
                               "--brute", "-1")
    assert code == 2 and out == ""
    assert "brute-force bound must be >= 0" in err
    code, out, _ = exit_code(capsys, "visible", "--tree", str(tree_path), "--pair", "1",
                             "--brute", "0")
    assert code == 0 and "brute_matches" in json.loads(out)


@pytest.mark.parametrize("argv", [["bp", "build", "--n", "4", "--unpaired", "--radius", "-1"],
                                  ["bp", "build", "--n", "4", "--unpaired", "--radius", "9"],
                                  ["verify-all", "--n", "3", "--radius", "9"],
                                  ["verify-all", "--n", "3", "--radius", "-1"]])
def test_radius_out_of_budget_exits_2_at_once(capsys, argv):
    code, out, err = exit_code(capsys, *argv)
    assert code == 2 and out == ""
    assert "radius must be in 0..8" in err
    assert "[ 1]" not in err  # no criterion ran


@pytest.mark.parametrize("argv, message", [
    (["words", "reduce", "x1", "--n", "abc"], "argument --n: rank must be an integer, got 'abc'"),
    (["gn-embed", "--n", "4.5", "--words", "x1"],
     "argument --n: rank must be an integer, got '4.5'"),
    (["visible", "--tree", "t.json", "--pair", "1", "--brute", "b"],
     "argument --brute: brute-force bound must be an integer, got 'b'"),
    (["verify-all", "--n", "3", "--radius", "1e3"],
     "argument --radius: radius must be an integer, got '1e3'")])
def test_non_integer_flag_exits_2_naming_the_value(capsys, argv, message):
    code, out, err = exit_code(capsys, *argv)
    assert code == 2 and out == ""
    assert err.rstrip().endswith(message)
    assert "invalid" not in err and "_rank" not in err


def test_bad_field_exits_2_before_any_output(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(COMPLEX))
    code, out, err = exit_code(capsys, "homology", "--in", str(path), "--field", "4")
    assert code == 2 and out == ""
    assert "4 is not prime" in err
    code, out, err = exit_code(capsys, "homology", "--in", str(path), "--field", "3")
    assert code == 0 and json.loads(out)
    assert "reduced betti over 3" in err


TREE = json.loads(caterpillar(2).to_json())
NO_MARKING = {k: v for k, v in TREE.items() if k != "marking"}
COMPLEX = {"vertices": [0, 1], "simplices": [[0, 1]]}
BP = {"n": 2, "ambient": "paired", "params": {}, "classes": ["W2[a=x1;b=x2;pair=1]"],
      "elements": [[0]]}
# class 0 is missing as a face of [0, 1]; numbered by first appearance it would be 1
BP_OPEN = {"n": 4, "ambient": "unpaired", "params": {},
           "classes": ["W2[a=x1;b=x2;pair=1]", "W2[a=x3;b=x4;pair=2]"], "elements": [[1], [0, 1]]}


def _with(data, key, value):
    return {**data, key: value}


# (subcommand, file contents, a fragment of the message); "{f}" is the file
MALFORMED = [
    (["visible", "--tree", "{f}", "--pair", "1"], NO_MARKING, "$.marking: missing key"),
    (["visible", "--tree", "{f}", "--pair", "1"], [TREE], "$: expected an object"),
    (["visible", "--tree", "{f}", "--pair", "1"],
     _with(TREE, "vertices", [{"id": 0, "label": {"slot": "1"}}] + TREE["vertices"][1:]),
     "$.vertices[0].label"),
    (["visible", "--tree", "{f}", "--pair", "1"], _with(TREE, "edges", [[0, 2]]),
     "$.edges[0][1]"),
    (["visible", "--tree", "{f}", "--pair", "1"], _with(TREE, "marking", {"1": "x1"}),
     "$.marking.2: missing key"),
    (["certify", "--tree", "{f}", "--classes", "{f}"], NO_MARKING, "$.marking"),
    (["certify", "--tree", "{tree}", "--classes", "{f}"], {"W2[a=x1;b=x2]": 1},
     "$: expected an array"),
    (["certify", "--tree", "{tree}", "--classes", "{f}"], [1], "$[0]: expected a string"),
    (["certify", "--tree", "{tree}", "--classes", "{f}"], ["W2[a=x1]"], "bad class literal"),
    (["homology", "--in", "{f}"], [COMPLEX], "$: expected an object"),
    (["homology", "--in", "{f}"], {"vertices": [0]}, "$.simplices: missing key"),
    (["homology", "--in", "{f}"], _with(COMPLEX, "simplices", [[0, "1"]]), "$.simplices[0][1]"),
    (["bp", "report", "--in", "{f}"], [BP], "$: expected an object"),
    (["bp", "report", "--in", "{f}"], _with(BP, "elements", [[1]]), "$.elements[0][0]"),
    (["bp", "report", "--in", "{f}"], _with(BP, "classes", "W2[a=x1;b=x2;pair=1]"),
     "$.classes: expected an array"),
    (["bp", "report", "--in", "{f}"], {k: v for k, v in BP.items() if k != "ambient"},
     "$.ambient: missing key"),
    (["bp", "build", "--n", "2", "--trees", "{tree},{f}"], NO_MARKING, "$.marking"),
    (["visible", "--tree", "{f}", "--pair", "1"], _with(TREE, "marking", {"1": "x1", "2": "x9"}),
     "$.marking.2: letter 9 out of range"),
    (["certify", "--tree", "{tree}", "--classes", "{f}"], ["W2[a=x1;b=x2;pair=1;zzz=3]"],
     "bad class literal"),
    (["certify", "--tree", "{tree}", "--classes", "{f}"], ["W2[a=x2;a=x1;b=x2;pair=1]"],
     "bad class literal"),
    (["certify", "--tree", "{tree}", "--classes", "{f}"], ["W2[x1]"], "bad class literal"),
    (["bp", "report", "--in", "{f}"],
     _with(BP, "classes", ["W2[a=x1;b=x2;pair=1]", "W2[a=x2;b=x1;pair=1]"]),
     "$.classes: two literals of one class"),
    (["bp", "report", "--in", "{f}"], _with(BP, "elements", [[0], [0]]),
     "$.elements: repeated element"),
    (["bp", "report", "--in", "{f}"], BP_OPEN, "missing face (0,) of (0, 1)"),
    (["bp", "report", "--in", "{f}"], _with(BP, "elements", [[0], []]), "degenerate simplex ()"),
]


@pytest.mark.parametrize("argv,data,message", MALFORMED,
                         ids=["-".join([*(w for w in a[:2] if w[0] != "-"), str(i)])
                              for i, (a, _, _) in enumerate(MALFORMED)])
def test_malformed_input_exits_2_with_key_path(tmp_path, capsys, argv, data, message):
    path, tree = tmp_path / "in.json", tmp_path / "tree.json"
    path.write_text(json.dumps(data))
    tree.write_text(json.dumps(TREE))
    argv = [a.format(f=path, tree=tree) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


def test_malformed_input_on_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2]"))
    assert main(["homology", "--in", "-"]) == 2
    assert "<stdin>: $: expected an object" in capsys.readouterr().err


def test_vertex_cap_surfaces_as_budget_status():
    result = run_criterion(1, RunConfig(vertex_cap=10))
    assert result.status == "budget-exceeded"


def _refuse(tree, classes):
    raise CertificationError("certification refused")


def test_certification_error_fails_its_criterion(monkeypatch):
    monkeypatch.setattr(verify, "certify_partial_basis", _refuse)
    result = run_criterion(6, RunConfig())
    assert result.status == "fail"
    assert result.details == {"error": "certification refused"}


def test_verify_all_reports_a_certification_failure_and_runs_on(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(verify, "certify_partial_basis", _refuse)
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify-all", "--n", "3", "--radius", "0", "--out", str(out))
    assert code == 1
    criteria = {c["id"]: c for c in json.loads(out.read_text())["criteria"]}
    assert criteria[6]["status"] == "fail"
    assert criteria[6]["details"] == {"error": "certification refused"}
    assert all(criteria[cid]["status"] == "pass" for cid in (7, 8, 9, 10))


def test_global_soft_timeout(monkeypatch):
    from grushko.verify import run_all

    monkeypatch.setenv("GRUSHKO_BUDGET_SECONDS", "0")
    report = run_all(RunConfig())
    statuses = {c["status"] for c in report["criteria"]}
    assert statuses == {"budget-exceeded"}
    assert not report["pass"]


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_max=1)
    with pytest.raises(ValueError):
        RunConfig(vertex_cap=0)
    with pytest.raises(ValueError, match="desk scale"):
        RunConfig(n_max=7)
    with pytest.raises(ValueError, match="desk scale"):
        RunConfig(n_max=6)
    with pytest.raises(ValueError, match="radius must be in 0..8"):
        RunConfig(radius=9)
    with pytest.raises(ValueError, match="radius must be in 0..8"):
        RunConfig(radius=-1)


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "grushko", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("words", "reduce", "x1.x2.x2")
    assert done.returncode == 0 and json.loads(done.stdout)["word"] == "x1"
    done = run("verify-all", "--n", "6")
    assert done.returncode == 2 and done.stdout == ""
    assert "desk scale exceeded: n <= 5" in done.stderr


# ---------------------------------------------------------------------------
# argv fuzz: every subcommand but verify-all, ranks <= 4, radii <= 1
# ---------------------------------------------------------------------------

def _twisted_tree():
    """A rank-3 tree whose marking is not standard, so reading it inverts
    the marking automorphism."""
    x1, x2, x3 = generators(3)
    return MarkedTree(enumerate_shapes(3)[0], (x1, conjugate(x2, x1), conjugate(x3, x2)))


FUZZ_FILES = {
    "tree2": caterpillar(2).to_json(),
    "tree4": caterpillar(4).to_json(),
    "twisted": _twisted_tree().to_json(),
    "classes": json.dumps(["W2[a=x1;b=x2;pair=1]"]),
    "classes2": json.dumps(["W2[a=x1;b=x2;pair=1]", "W2[a=x3;b=x4;pair=2]"]),
    "bad_classes": json.dumps(["W2[a=x1;b=x1;pair=1]", "W2[a=x1*x2;b=x3;pair=9]"]),
    "invisible": json.dumps(INVISIBLE),
    "collision": json.dumps(COLLISION),
    "complex": json.dumps(COMPLEX),
    "bp": json.dumps(BP),
    "no_marking": json.dumps(NO_MARKING),
    "broken": '{"vertices": [,]}',
    "list": "[1, 2]",
}
FILES = st.sampled_from([f"@{name}" for name in FUZZ_FILES] + ["@missing", "@dir", "-"])
RANKS = st.sampled_from(["1", "2", "3", "4", "0", "-1", "x", ""])
RADII = st.sampled_from(["0", "1", "-1", "9", "r"])
WORD_TEXTS = st.text(alphabet="x1234.*, -e", max_size=8)
W3 = st.lists(st.integers(1, 3), max_size=5).map(lambda letters: reduce(letters, 3))


def _opt(flag, values):
    return st.just([]) | values.map(lambda v: [flag, v])


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _json_words(words):
    return json.dumps([str(w) for w in words])


@st.composite
def phi3_bases(draw):
    """Three images reached from x1, x2, x3 by Nielsen moves and a permutation."""
    imgs = list(generators(3))
    for i, k in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4)):
        if i != k:
            imgs[k] = conjugate(imgs[k], imgs[i])
    return _json_words(draw(st.permutations(imgs)))


PHI3 = st.one_of(
    phi3_bases(),
    # involutions or other words that need not form a basis
    st.lists(st.tuples(st.integers(1, 3), W3), min_size=3, max_size=3).map(
        lambda pairs: _json_words(conjugate(generator(j, 3), w) for j, w in pairs)),
    st.lists(W3, min_size=3, max_size=3).map(_json_words),
    # malformed JSON, or JSON of the wrong shape
    st.sampled_from(["[", '{"a":1}', '"x1"', "[1,2,3]", "[]", '["x1","x2"]', "null",
                     '["x1","x2","x3","x1"]', '["x4","x2","x3"]', '["x0","x2","x3"]']),
    st.text(max_size=6),
)

ARGVS = st.one_of(
    _argv(st.just(["words"]), st.sampled_from([["reduce"], ["multiply"], ["divide"]]),
          st.lists(WORD_TEXTS, min_size=1, max_size=3), _opt("--n", RANKS)),
    _argv(st.just(["fold", "--words"]), WORD_TEXTS.map(lambda t: [t]), _opt("--n", RANKS),
          _opt("--member", WORD_TEXTS), _flag("--dot")),
    _argv(st.just(["visible", "--tree"]), FILES.map(lambda f: [f, "--pair"]),
          st.sampled_from(["-1", "0", "1", "2", "3", "4", "9", "a"]).map(lambda p: [p]),
          _opt("--brute", st.sampled_from(["-1", "0", "1", "2", "3", "b"]))),
    _argv(st.just(["certify", "--tree"]), FILES.map(lambda f: [f, "--classes"]),
          FILES.map(lambda f: [f])),
    _argv(st.just(["shapes"]), _opt("--n", RANKS), _flag("--poset"),
          _flag("--up-to-relabeling")),
    _argv(st.just(["homology"]), _opt("--in", FILES),
          _opt("--field", st.sampled_from(["Q", "2", "3", "4", "0", "-3", "q", ""]))),
    _argv(st.just(["bp", "build"]), _opt("--n", RANKS), _flag("--unpaired"),
          _opt("--radius", RADII),
          _opt("--trees", st.lists(FILES, min_size=1, max_size=2).map(",".join))),
    _argv(st.just(["bp", "report"]), _opt("--in", FILES)),
    _argv(st.just(["gn-embed", "--n"]), (st.just("4") | RANKS).map(lambda n: [n]),
          _opt("--phi3", PHI3),
          _opt("--words", st.lists(W3, max_size=2).map(lambda ws: ",".join(map(str, ws)))
               | WORD_TEXTS),
          _flag("--free")),
    st.lists(st.sampled_from(["bp", "frobnicate", "--n", "4", "-h"]), max_size=3),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / f"{name}.json").write_text(text)
    return root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=ARGVS)
def test_argv_fuzz_exits_by_contract(fuzz_dir, argv):
    """Any argv ends in exit code 0, 1, 2 or 3 without a traceback: an
    exception other than SystemExit escapes main and fails the test."""
    paths = {f"@{name}": str(fuzz_dir / f"{name}.json") for name in [*FUZZ_FILES, "missing"]}
    paths["@dir"] = str(fuzz_dir)
    argv = [",".join(paths.get(part, part) for part in a.split(",")) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with patch("sys.stdin", io.StringIO("")), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
