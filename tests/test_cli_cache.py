import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jacktop import cache, cli, jackref, verify
from jacktop.cache import SCHEMA_VERSION, Cache
from jacktop.exact import KLPoly
from jacktop.jackref import _basis, _jack_m_vector
from jacktop.topdegree import kl_top
from jacktop.verify import SUITES
from jacktop.young import format_partition, partitions_of


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def sealed(doc: dict) -> str:
    """A cache file's text for doc, with the current schema version unless
    doc names one, and the SHA-256 of its canonical JSON (sorted keys,
    compact separators) under "sha256", as Cache writes it."""
    doc = {"schema": SCHEMA_VERSION, **doc}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return json.dumps({**doc, "sha256": hashlib.sha256(text.encode())
                       .hexdigest()})


def test_kl_top_text(capsys):
    code, out = run_cli(capsys, "kl-top", "2", "--format", "text")
    assert code == 0
    assert out.strip() == "R3 + R2*g"


def test_kl_top_json(capsys):
    code, out = run_cli(capsys, "kl-top", "1")
    assert code == 0
    assert json.loads(out) == [{"gamma": 0, "mu": [2], "coeff": "1"}]


def test_budget_exit_code(capsys):
    code, _ = run_cli(capsys, "kl-top", "99")
    assert code == 2


@pytest.mark.parametrize("argv,code,err", [
    ("kl-top 0", 1, "error: n must be >= 1, got 0"),
    ("kl-top 7", 2, "budget: n = 7 exceeds budget 6"),
    ("--budget 3 kl-top 4", 2, "budget: n = 4 exceeds budget 3"),
    ("eval chtop 0 2,1", 1, "error: n must be >= 1, got 0"),
    ("eval chtop 7 2,1", 2, "budget: n = 7 exceeds budget 6"),
    # The diagram is parsed before the index is held to the budget.
    ("eval chtop 9 x", 1, "error: invalid literal for int() with base 10: 'x'"),
    # A diagram is ASCII digit parts, weakly decreasing; zeros only trail.
    ("eval chtop 2 3,0,2", 1, "error: not weakly decreasing: (3, 0, 2)"),
    ("eval chtop 2 1_0", 1, "error: invalid literal for int() with base 10: '1_0'"),
    ("eval chtop 2 \u0663", 1,
     "error: invalid literal for int() with base 10: '\u0663'"),
    ("eval chtop 2 +3", 1, "error: invalid literal for int() with base 10: '+3'"),
    ("census 0", 1, "error: n must be >= 1, got 0"),
    ("census 7", 2, "budget: n = 7 exceeds budget 6"),
    ("eval R 9 2,1", 2, "budget: R index 9 exceeds budget"),
    ("eval S 9 2,1", 2, "budget: S index 9 exceeds budget"),
    ("eval T 9 2,1", 2, "budget: T index 9 exceeds budget"),
    ("eval T 8 2,1", 0, ""),
    # S and T hold |lambda| to cli.MAX_BOXES; R, M and K need no such cap.
    ("eval S 3 100000", 2, "budget: |lambda| = 100000 exceeds bound 1000"),
    ("eval T 3 1001", 2, "budget: |lambda| = 1001 exceeds bound 1000"),
    ("eval T 3 1000", 0, ""),
    ("eval R 3 100000", 0, ""),
    ("eval M 2 100000", 0, ""),
    ("eval K 2,1 100000", 0, ""),
    ("eval M 4,3 2,1", 2, "budget: |pi| = 7 exceeds budget"),
    ("--budget 7 kl-top 7", 0, ""),
    # The prologue tables stop at n = 4, so a larger n would check nothing more.
    ("verify prologue-tables 9", 1,
     "error: prologue-tables parameter must be <= 4, got 9"),
])
def test_budget_and_usage_errors(capsys, argv, code, err):
    assert cli.main(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.err == (err + "\n" if err else "")
    assert bool(captured.out) == (code == 0)


@pytest.mark.parametrize("argv,err", [
    ("eval M 4,3 2,1", "budget: |pi| = 7 exceeds budget"),
    ("eval K 1000000 1", "budget: |pi| = 1000000 exceeds budget"),
])
def test_moment_budget_is_held_before_the_permutation(capsys, monkeypatch,
                                                       argv, err):
    # An index near 10**9 would exhaust memory building its permutation.
    def no_perm(index):
        raise AssertionError(f"perm_from_cycle_type({index}) called")

    monkeypatch.setattr(cli, "perm_from_cycle_type", no_perm)
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err == err + "\n" and captured.out == ""


def test_cache_dir_does_not_outlive_its_call(tmp_path, capsys):
    assert cli.main(["--cache-dir", str(tmp_path), "kl-top", "2"]) == 0
    assert cache.ACTIVE is None
    written = sorted(tmp_path.iterdir())
    assert written == [tmp_path / "kltop_2.json"]
    assert cli.main(["kl-top", "3"]) == 0
    assert cache.ACTIVE is None
    assert sorted(tmp_path.iterdir()) == written


def test_eval_examples(capsys):
    code, out = run_cli(capsys, "eval", "ch", "2", "2")
    assert code == 0 and json.loads(out) == {"1": "2"}
    code, out = run_cli(capsys, "eval", "R", "2", "3,1")
    assert code == 0 and json.loads(out) == {"0": "4"}
    code, out = run_cli(capsys, "eval", "ch", "3", "1")
    assert code == 0 and json.loads(out) == {}


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(capsys, "eval", "ch", "2", "2,x")
    assert code == 1
    code, _ = run_cli(capsys, "eval", "ch", "2", "1,2")
    assert code == 1


def test_usage_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 1


def test_verify_suite_exit(capsys):
    code, out = run_cli(capsys, "verify", "catalan", "5")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_positivity_reports_bad_oracle_coefficients(capsys,
                                                           monkeypatch):
    bad = {2: KLPoly({(0, (3,)): -1, (1, (2,)): 1}),
           3: KLPoly({(0, (4,)): Fraction(1, 2)})}
    monkeypatch.setattr(verify, "kl_expand_full",
                        lambda n: bad.get(n, KLPoly({(0, (2,)): 1})))
    code, out = run_cli(capsys, "verify", "positivity", "3")
    assert code == 3
    report = json.loads(out)
    assert report["pass"] is False
    assert report["witnesses"] == [
        {"n": 2, "expansion": "full", "gamma": 0, "mu": [3], "coeff": "-1"},
        {"n": 3, "expansion": "full", "gamma": 0, "mu": [4], "coeff": "1/2"},
    ]


def test_census_output(capsys):
    code, out = run_cli(capsys, "census", "2")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"sigma1": "1,2", "sigma2": "2,1", "orbitSize": 1},
        {"sigma1": "2,1", "sigma2": "1,2", "orbitSize": 1},
        {"sigma1": "2,1", "sigma2": "2,1", "orbitSize": 1},
    ]


def test_cache_roundtrip(tmp_path):
    cache = Cache(str(tmp_path))
    value = _jack_m_vector((2, 1))
    cache.store_jack((2, 1), value)
    assert cache.load_jack((2, 1), _basis(3).check_vector) == value

    def reject(lam, vector):
        raise ValueError("implausible")

    assert cache.load_jack((2, 1), reject) is None
    table = kl_top(3)
    cache.store_kl_top(3, table)
    assert cache.load_kl_top(3) == table
    assert cache.load_kl_top(4) is None


def test_cache_schema_versioning(tmp_path):
    cache = Cache(str(tmp_path))
    cache.store_kl_top(2, kl_top(2))
    path = tmp_path / "kltop_2.json"
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA_VERSION
    digest = doc.pop("sha256")
    assert json.loads(sealed(doc))["sha256"] == digest
    doc["schema"] = SCHEMA_VERSION - 1
    path.write_text(sealed(doc))
    assert cache.load_kl_top(2) is None


# One `eval ch` per diagram size 0-9, with the oracle's own suite.
WARM_RUNS = [["kl-top", "3"], ["eval", "ch", "0", "0"], ["eval", "ch", "1", "1"],
             ["eval", "ch", "2", "1,1"], ["eval", "ch", "2,1", "2,1"],
             ["eval", "ch", "3", "2,2"], ["eval", "ch", "2,2", "3,1,1"],
             ["eval", "ch", "4", "3,2,1"], ["eval", "ch", "3,1", "4,2,1"],
             ["eval", "ch", "2,1,1", "3,3,2"], ["eval", "ch", "4", "4,3,2"],
             ["verify", "jack-examples", "4"]]


def test_warm_cache_identical_output(tmp_path, capsys, monkeypatch,
                                     forget_jack_vectors):
    # The same stdout without a cache, cold and warm; a warm read of an
    # untouched file is a hit, so nothing is written again; and no command
    # converts a whole power-sum expansion.
    conversions = []
    real = jackref._Basis.theta_from_m
    monkeypatch.setattr(jackref._Basis, "theta_from_m",
                        lambda self, rhs: conversions.append(rhs)
                        or real(self, rhs))

    def run_all(*flags):
        outs = []
        for argv in WARM_RUNS:
            forget_jack_vectors()
            outs.append(run_cli(capsys, *flags, *argv))
        return outs

    plain = run_all()
    assert [code for code, _ in plain] == [0] * len(WARM_RUNS)
    assert run_all("--cache-dir", str(tmp_path)) == plain
    disk = Cache(str(tmp_path))
    assert disk.load_kl_top(3) == kl_top(3)
    assert disk.load_jack((4, 3, 2), _basis(9).check_vector) == \
        _jack_m_vector((4, 3, 2))
    writes = []
    monkeypatch.setattr(Cache, "_write", lambda *args: writes.append(args))
    assert run_all("--cache-dir", str(tmp_path)) == plain
    assert writes == []
    assert conversions == []


def triple_g_r3(doc):
    term, = [t for t in doc["terms"] if t["mu"] == [3]]
    assert term == {"gamma": 1, "mu": [3], "coeff": "3"}
    term["coeff"] = "5"


def flip_jack_3_1(doc):
    # The entry at 2,1,1, which no plausibility check reads.
    assert doc["vector"][3] == [10, 6]
    doc["vector"][3] = [10, 7]


@pytest.mark.parametrize("argv,name,edit,expected", [
    (["kl-top", "3", "--format", "text"], "kltop_3.json", triple_g_r3,
     "R4 + 3*R3*g + 2*R2*g^2\n"),
    (["eval", "ch", "2", "3,1"], "jack_3-1.json", flip_jack_3_1,
     '{"-1": "-2", "1": "6"}\n'),
], ids=["kl-top", "jack"])
def test_hand_edited_cache_file_is_a_miss(tmp_path, capsys,
                                          forget_jack_vectors, argv, name,
                                          edit, expected):
    # A value edited by hand, with the old digest left in place, is a miss:
    # it is recomputed, printed right and the file written again.
    argv = ["--cache-dir", str(tmp_path), *argv]
    assert run_cli(capsys, *argv) == (0, expected)
    path = tmp_path / name
    before = path.read_bytes()
    doc = json.loads(before)
    edit(doc)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    forget_jack_vectors()
    assert run_cli(capsys, *argv) == (0, expected)
    assert path.read_bytes() == before


def test_jobs_do_not_change_output(capsys):
    for n in ("3", "5"):
        _, out1 = run_cli(capsys, "census", n)
        _, out2 = run_cli(capsys, "--jobs", "2", "census", n)
        assert out1 == out2, n


def test_jobs_do_not_leak_into_later_calls(capsys, monkeypatch):
    import multiprocessing
    from jacktop import maps
    assert run_cli(capsys, "--jobs", "2", "census", "3")[0] == 0
    assert maps._JOBS == 1
    pools = []
    monkeypatch.setattr(multiprocessing, "Pool",
                        lambda *args, **kwargs: pools.append(args))
    assert run_cli(capsys, "census", "3")[0] == 0
    assert pools == []


@pytest.mark.parametrize("argv", [["--jobs", "0", "census", "3"],
                                  ["--jobs", "-3", "census", "2"],
                                  ["census", "2", "--jobs", "0"]])
def test_jobs_below_one_is_usage_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    jobs = argv[argv.index("--jobs") + 1]
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"


def test_n_below_one_is_usage_error(capsys):
    code, out = run_cli(capsys, "kl-top", "0")
    assert code == 1 and out == ""
    code, out = run_cli(capsys, "eval", "chtop", "0", "2,1")
    assert code == 1 and out == ""


@pytest.mark.parametrize("n", ["0", "-1"])
def test_census_n_below_one_is_usage_error(capsys, n):
    code = cli.main(["census", n])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: n must be >= 1")


@pytest.mark.parametrize("argv", [
    ["top-vs-full", "-1"], ["t3", "-3"], ["p1top", "-3"], ["catalan", "0"],
    # These suites range from 2, so 1 would pass with nothing checked.
    ["p1top", "1"], ["catalan", "1"], ["st-conversion", "1"],
    # stanley 1 has 3 diagrams, too few to mean anything.
    ["stanley", "1"],
])
def test_verify_param_below_one_is_usage_error(capsys, argv):
    least = 2 if argv[0] in ("p1top", "catalan", "st-conversion",
                             "stanley") else 1
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {argv[0]} parameter must be >= {least}, "
                            f"got {argv[1]}\n")


@pytest.mark.parametrize("bad", [
    '{"schema": 1}', "[1, 2]", pytest.param(sealed({}), id="sealed"),
    # Python reads no integer of more than 4300 digits by default.
    pytest.param('{"n": %s}' % ("1" * 5000), id="long-integer")])
def test_wrong_shape_kl_top_file_is_a_miss(tmp_path, capsys, bad):
    path = tmp_path / "kltop_3.json"
    path.write_text(bad)
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "kl-top", "3", "--format", "text")
    assert code == 0
    assert out.strip() == "R4 + 3*R3*g + 2*R2*g^2"
    assert json.loads(path.read_text())["terms"] == kl_top(3).to_json()


DEEP = "[" * 200_000 + "]" * 200_000  # past the JSON parser's recursion limit


@pytest.mark.parametrize(
    "bad", [DEEP, '{"schema": 1, "n": 3, "terms": %s}' % DEEP],
    ids=["bare", "in-document"])
def test_deeply_nested_kl_top_file_is_a_miss(tmp_path, capsys, bad):
    path = tmp_path / "kltop_3.json"
    path.write_text(bad)
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "kl-top", "3", "--format", "text")
    assert code == 0
    assert out.strip() == "R4 + 3*R3*g + 2*R2*g^2"
    assert json.loads(path.read_text())["terms"] == kl_top(3).to_json()


@pytest.mark.parametrize(
    "bad", [DEEP, '{"schema": 1, "lambda": "2", "vector": %s}' % DEEP],
    ids=["bare", "in-document"])
def test_deeply_nested_jack_file_is_a_miss(tmp_path, capsys,
                                           forget_jack_vectors, bad):
    path = tmp_path / "jack_2.json"
    path.write_text(bad)
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "eval", "ch", "2", "2")
    assert code == 0 and json.loads(out) == {"1": "2"}
    assert json.loads(path.read_text())["vector"] == [[1, 1], [2]]


@pytest.mark.parametrize("n,terms", [
    (5, [{"gamma": 0, "mu": [4], "coeff": "7"}]),  # the document of index 5
    (3, [{"gamma": 0, "mu": [4], "coeff": "1"},    # a term of grading 3
         {"gamma": 1, "mu": [2], "coeff": "1"}]),
    (3, [{"gamma": float("inf"), "mu": [2], "coeff": "1"}]),  # no integer
])
def test_implausible_kl_top_file_is_a_miss(tmp_path, capsys, n, terms):
    path = tmp_path / "kltop_3.json"
    path.write_text(sealed({"n": n, "terms": terms}))
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "kl-top", "3", "--format", "text")
    assert code == 0
    assert out.strip() == "R4 + 3*R3*g + 2*R2*g^2"
    doc = json.loads(path.read_text())
    assert doc["n"] == 3 and doc["terms"] == kl_top(3).to_json()


@pytest.mark.parametrize("coeff", [
    "1e3", "7.0", "+7", " 7", "-3/6",
    "1e10000000",  # read by Fraction, a 4 MB integer and seconds of work
])
def test_coefficient_not_in_written_form_is_a_miss(tmp_path, capsys, coeff):
    terms = kl_top(3).to_json()
    terms[0]["coeff"] = coeff
    path = tmp_path / "kltop_3.json"
    path.write_text(sealed({"n": 3, "terms": terms}))
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "kl-top", "3", "--format", "text")
    assert code == 0
    assert out.strip() == "R4 + 3*R3*g + 2*R2*g^2"
    assert json.loads(path.read_text())["terms"] == kl_top(3).to_json()


@pytest.mark.parametrize("bad", ['{"schema": 1}', "[1, 2]",
                                 pytest.param(sealed({}), id="sealed")])
def test_wrong_shape_jack_file_is_a_miss(tmp_path, capsys,
                                         forget_jack_vectors, bad):
    def run_cold():
        forget_jack_vectors()
        return run_cli(capsys, "--cache-dir", str(tmp_path),
                       "eval", "ch", "2", "3,1")

    code, expected = run_cold()
    assert code == 0
    files = sorted(tmp_path.glob("jack_*.json"))
    assert files
    for path in files:
        path.write_text(bad)
    code, out = run_cold()
    assert code == 0
    assert out == expected
    for path in files:
        assert "vector" in json.loads(path.read_text())


def fresh_jack_file(tmp_path, lam):
    """The bytes of lam's jack file as Cache writes it, in a directory of
    its own."""
    disk = Cache(str(tmp_path / "fresh"))
    disk.store_jack(lam, _jack_m_vector(lam))
    return (tmp_path / "fresh" / disk._jack_name(lam)).read_bytes()


# J_2 = (a + 1) m_2 + 2 m_1,1, its vector [[1, 1], [2]] in `parts` order.
@pytest.mark.parametrize("coeffs,lam", [
    ([[1, 1], [2]], "1,1"),         # a document that names another diagram
    ([[1, 1]], "2"),                # fewer entries than partitions of 2
    ([[1, 1], [2], [2]], "2"),      # more
    ([[True, 1], [2]], "2"),        # a bool, equal to 1 but not an int
    ([[1, 1.0], [2]], "2"),         # a float
    ([[1, 1], 2], "2"),             # an entry that is not a list
    ([[1, 2], [2]], "2"),           # a leading entry other than c_lambda
    ([[1, 1], [4]], "2"),           # a bottom entry other than n!
])
def test_implausible_jack_file_is_a_miss(tmp_path, capsys, forget_jack_vectors,
                                         coeffs, lam):
    path = tmp_path / "jack_2.json"
    path.write_text(sealed({"lambda": lam, "vector": coeffs}))
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "eval", "ch", "2", "2")
    assert code == 0 and json.loads(out) == {"1": "2"}
    assert path.read_bytes() == fresh_jack_file(tmp_path, (2,))


# J_3,1 in `parts` order 4 > 3,1 > 2,2 > 2,1,1 > 1^4 is [[], [2, 4, 2],
# [4, 4], [10, 6], [24]]: the entries at 2,2 and 2,1,1 are checked only
# for their written form.
@pytest.mark.parametrize("vector", [
    [[1], [2, 4, 2], [4, 4], [10, 6], [24]],
    [[], [2, 4, 2], [4, 4, 0], [10, 6], [24]],
    [[], [2, 4, 2], [24]],  # the character would read entry 2,1,1
], ids=["entry-before-the-diagram", "trailing-zero", "short"])
def test_implausible_jack_vector_of_3_1_is_a_miss(tmp_path, capsys,
                                                  forget_jack_vectors, vector):
    path = tmp_path / "jack_3-1.json"
    path.write_text(sealed({"lambda": "3,1", "vector": vector}))
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "eval", "ch", "2", "3,1")
    assert code == 0 and json.loads(out) == {"-1": "-2", "1": "6"}
    assert path.read_bytes() == fresh_jack_file(tmp_path, (3, 1))


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_cache_dir_is_usage_error(tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / sub if sub else blocker
    code = cli.main(["--cache-dir", str(path), "kl-top", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: cannot use --cache-dir")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("blocked", ["kltop_2.json.tmp", "kltop_2.json"])
def test_failed_cache_write_is_skipped(tmp_path, capsys, blocked):
    (tmp_path / blocked).mkdir()
    code = cli.main(["--cache-dir", str(tmp_path), "kl-top", "2",
                     "--format", "text"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == "R3 + R2*g\n"
    assert captured.err.startswith("warning: cache write skipped")
    assert captured.err.count("\n") == 1
    if blocked == "kltop_2.json":
        assert not (tmp_path / "kltop_2.json.tmp").exists()


# CLI fuzzing: the README's subcommands on small arguments, with one
# argument swapped for junk in half of the cases.  No `--jobs`, so no worker
# process is started.
JUNK = st.sampled_from(["3,,1", "-1", "1e3", "2,3", "", "x"])
SMALL_INT = st.integers(-1, 4).map(str)
PARTITION = st.sampled_from([format_partition(p) for s in range(7)
                             for p in partitions_of(s)])


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["kl-top", "census", "eval", "verify"]))
    if command in ("kl-top", "census"):
        argv = [command, draw(SMALL_INT)]
    elif command == "eval":
        kind = draw(st.sampled_from(["ch", "chtop", "R", "T", "S", "M", "K"]))
        index = draw(PARTITION if kind in ("ch", "M", "K") else SMALL_INT)
        argv = [command, kind, index, draw(PARTITION)]
    else:
        argv = [command, draw(st.sampled_from(sorted(SUITES))),
                str(draw(st.integers(-2, 2)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text"]))]
    if draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        argv[draw(st.integers(1, len(argv) - 1))] = draw(JUNK)
    return argv


@given(argv=cli_argvs(), cached=st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_exits_cleanly(tmp_path, argv, cached):
    # One cache directory for all examples, so later ones read what
    # earlier ones wrote.
    if cached:
        argv = ["--cache-dir", str(tmp_path), *argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def test_jack_examples_beyond_the_default_bound(capsys):
    code, out = run_cli(capsys, "verify", "jack-examples", "9")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["params"] == {"max_size": 9}


def test_stanley_cases_stop_at_size_8():
    # The suite checks diagrams of at most 8 boxes, so entries past 8 add
    # no case: the lists grow to 218 cases at 8 and stay the same after.
    counts = [len(verify.stanley_test_diagrams(n)) for n in range(2, 9)]
    assert counts == [42, 110, 167, 197, 211, 216, 218]
    at_8 = verify.stanley_test_diagrams(8)
    for n in range(9, 13):
        assert verify.stanley_test_diagrams(n) == at_8, n


def test_verify_stanley_20_is_quick(capsys):
    # A branch stops once its size passes 8, so a large entry bound costs
    # what 8 does.
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify", "stanley", "20")
    assert time.perf_counter() - start < 1.0
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["params"] == {"max_entry": 20, "cases": 218}


# Cache-file fuzzing: truncated or byte-damaged copies of a valid Jack and a
# valid top-degree document, each read by the command that uses it; or, in
# half of the cases, a copy with one value replaced, at any depth, that
# still parses as a JSON object and is sealed again, so that it passes the
# digest and reaches its decoder.  A damaged file is a miss or a plausible
# hit, never a failed command.
CACHE_COMMANDS = {"jack_3-1.json": ["eval", "ch", "2", "3,1"],
                  "kltop_3.json": ["kl-top", "3"]}
CACHE_BYTES = st.binary(min_size=1, max_size=4) | st.lists(
    st.sampled_from(list(b'0123456789-e.,:[]{}"a^*/ \xff')),
    min_size=1, max_size=4).map(bytes)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-30, 30) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


@pytest.fixture(scope="module")
def valid_cache_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("valid")
    cache = Cache(str(directory))
    cache.store_jack((3, 1), _jack_m_vector((3, 1)))
    cache.store_kl_top(3, kl_top(3))
    return {name: (directory / name).read_bytes() for name in CACHE_COMMANDS}


def replace_a_value(data, value, root=False):
    """value with one part, at a drawn depth, replaced by a drawn JSON
    value; the root stays a JSON object."""
    if root or value and isinstance(value, (list, dict)) and \
            data.draw(st.booleans()):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(keys))
        copy = value.copy()
        copy[key] = replace_a_value(data, value[key])
        return copy
    return data.draw(JSON_VALUES)


@given(data=st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_cache_file_exits_cleanly(tmp_path, valid_cache_files,
                                          forget_jack_vectors, data):
    name = data.draw(st.sampled_from(sorted(CACHE_COMMANDS)))
    valid = valid_cache_files[name]
    if data.draw(st.booleans()):
        doc = json.loads(valid)
        del doc["sha256"]
        damaged = sealed(replace_a_value(data, doc, root=True)).encode()
    else:
        i = data.draw(st.integers(0, len(valid) - 1))
        if data.draw(st.booleans()):
            damaged = valid[:i]
        else:
            j = data.draw(st.integers(i, min(i + 3, len(valid))))
            damaged = valid[:i] + data.draw(CACHE_BYTES) + valid[j:]
    (tmp_path / name).write_bytes(damaged)
    forget_jack_vectors()
    argv = ["--cache-dir", str(tmp_path), *CACHE_COMMANDS[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, (damaged, err.getvalue())
    assert err.getvalue() == "", damaged
