"""Table III — per-application execution time and disk energy under the
Default Scheme (no power management, no scheduling)."""


def test_table3_defaults(render):
    result = render("table3")
    print("\n" + result.text)
    data = result.data
    # Every app simulated; wupwise is the longest run and hf is among the
    # longer ones, as in the paper's Table III.
    assert all(v["exec_minutes"] > 0 for v in data.values())
    # wupwise is among the longest runs (the paper's 39.8 min champion);
    # the exact ordering of the top two depends on the bench scale because
    # the compute stretches do not shrink with the sweep lengths.
    ordered = sorted(data, key=lambda a: data[a]["exec_minutes"], reverse=True)
    assert "wupwise" in ordered[:2]
    assert data["madbench2"]["exec_minutes"] == min(
        v["exec_minutes"] for v in data.values()
    )
    # Energy tracks execution time to first order under pure idling.
    assert data["wupwise"]["energy_joules"] > data["madbench2"]["energy_joules"]
