"""Every demo script runs to completion, and its stdout is byte-identical
to its file in ``tests/golden/`` (written by ``tests/test_golden.py``)."""

from test_golden import DEMOS, GOLDEN, run_demos


def test_demos_run():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]
    results = run_demos()
    for name, (_, err, code) in results.items():
        assert code == 0, (name, err)
    # the sweep's timing goes to stderr, so its stdout repeats exactly
    sweep_out = results["demo_04.txt"][0].decode("utf-8")
    assert sweep_out.splitlines()[0] == "bound 5: 1802/1802 cases verified"
    for name, (out, _, _) in results.items():
        assert (GOLDEN / name).read_bytes() == out, name
