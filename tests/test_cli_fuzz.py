"""Fuzz ``cli.run`` with random commands, documents and flag values.

Whatever the input, ``run`` must return one of the documented exit codes
instead of raising, and a failed command (codes 2-4) must print no payload.
That includes an ``--svg`` path that cannot be written.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectrekit.cli import COMMANDS, run


def mostly(good, bad):
    """``good`` three times in four, ``bad`` otherwise."""
    return st.sampled_from([good] * 3 + [bad]).flatmap(lambda s: s)


nonneg_rats = st.sampled_from(["0", "1", "1/2", "2/3", "3", "1/4"])
good_rats = nonneg_rats | st.sampled_from(["-1", "-3/4"])
rats = mostly(good_rats, st.sampled_from(["1/0", "x", "", "0.5", 1]))
finite_groups = [{"type": "FinAb", "moduli": [5]}, {"type": "FinAb", "moduli": [2, 3]}]
valid_groups = st.sampled_from([
    {"type": "Qd", "dim": 1, "metric": "sup"},
    {"type": "Qd", "dim": 2, "metric": "taxicab"},
    {"type": "Qd", "dim": 2, "metric": "euclidean-squared"},
    {"type": "Qd", "dim": 1},
] + finite_groups)
groups = valid_groups | st.sampled_from([
    {"type": "Qd", "dim": 0}, {"type": "FinAb", "moduli": []}, {"type": "Banach"}, "Qd", None])


def valid_points(group):
    if group["type"] == "FinAb":
        coord = [st.integers(0, m - 1).map(str) for m in group["moduli"]]
    else:
        coord = [good_rats] * group["dim"]
    return st.lists(st.tuples(*coord).map(list), min_size=1, max_size=6, unique_by=tuple)


valid_series = {
    1: st.fixed_dictionaries({"terms": st.lists(nonneg_rats, max_size=6), "dim": st.just(1)}),
    2: st.fixed_dictionaries({"terms": st.lists(st.lists(nonneg_rats, min_size=2, max_size=2),
                                                max_size=6), "dim": st.just(2)}),
}
valid_pspec = st.fixed_dictionaries({
    "P": st.lists(nonneg_rats, max_size=2, unique=True).map(lambda P: ["0"] + P),
    "terms": st.lists(nonneg_rats, min_size=1, max_size=4)})


def set_doc(group):
    return st.fixed_dictionaries({"group": st.just(group), "points": valid_points(group)})


def valid_doc(flag, words, group):
    """A well-formed document for ``flag``; set documents share ``group``."""
    if flag == "--target":
        return st.sampled_from(finite_groups).flatmap(set_doc)
    if flag == "--series":
        return valid_series[2 if words.startswith("planar") else 1]
    if flag == "--pspec":
        return valid_pspec
    if flag == "--family":
        sets = st.lists(valid_points(group), min_size=1, max_size=3)
        return st.fixed_dictionaries({"group": st.just(group), "sets": sets})
    return set_doc(group)


points = st.lists(st.lists(rats, min_size=1, max_size=2), max_size=6)
terms = st.lists(rats | st.lists(rats, min_size=1, max_size=2), max_size=6)
any_text = st.one_of(
    st.fixed_dictionaries({"group": groups, "points": points}),
    st.fixed_dictionaries({"group": groups, "sets": st.lists(points, max_size=3)}),
    st.fixed_dictionaries({"terms": terms, "dim": st.sampled_from([1, 2, 3, None])}),
    st.fixed_dictionaries({"terms": terms}),
    st.fixed_dictionaries({"P": st.lists(rats, max_size=3),
                           "terms": st.lists(rats, max_size=4)}),
    st.sampled_from([0, "x", [], None, [1, 2], {"points": 3}]),
).map(json.dumps) | st.sampled_from(["{not json", "", "[" * 5000 + "]" * 5000])


def rat_list(n):
    lists = mostly(st.lists(good_rats, min_size=n, max_size=n), st.lists(rats, max_size=n + 1))
    return lists.map(lambda xs: ",".join(map(str, xs)))


values = {
    "--eps": rats,
    "--k": mostly(st.integers(1, 6), st.sampled_from([-1, 0, 9, "x"])),
    "--rect": rat_list(4),
    "--gap": rat_list(2),
    "--levels": mostly(st.integers(1, 5), st.sampled_from([-1, 0, 9, "x"])),
}


# Drawing the command as part of each example left some commands with two of
# 200 examples, so every command gets an equal share of the 200.
@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: c.words.replace(" ", "-"))
@settings(deadline=None, max_examples=200 // len(COMMANDS),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_exits_with_a_documented_code(tmp_path, capsys, cmd, data):
    group = data.draw(valid_groups, label="group")
    argv = cmd.words.split() + ["--budget", "4096"]
    for flag, spec in cmd.args:
        if not (spec.get("required") or data.draw(st.booleans())):
            continue
        if flag == "--svg":
            # Sometimes inside a directory that does not exist, so it cannot be written.
            name = data.draw(st.sampled_from(["plot.svg", "missing/plot.svg"]), label=flag)
            argv += [flag, str(tmp_path / name)]
        elif spec.get("metavar") == "FILE":
            path = tmp_path / f"{flag[2:]}.json"
            valid = valid_doc(flag, cmd.words, group).map(json.dumps)
            path.write_text(data.draw(mostly(valid, any_text), label=flag))
            argv += [flag, str(path)]
        elif flag == "--check":
            argv += [flag]
        elif flag == "--mode":
            mode = data.draw(mostly(st.sampled_from(spec["choices"]), st.just("bogus")))
            argv.append(f"{flag}={mode}")
        else:
            argv.append(f"{flag}={data.draw(values[flag], label=flag)}")
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert captured.out == ""
