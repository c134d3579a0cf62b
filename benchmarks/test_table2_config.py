"""Table II — the experimental configuration in force."""

from repro.experiments import table2_rows


def test_table2_config():
    result = table2_rows()
    print("\n" + result.text)
    data = dict(result.data)
    # The Table II anchors.
    assert data["Number of Client (Compute) Nodes"] == 32
    assert data["Number of I/O nodes"] == 8
    assert data["Stripe Size"] == "64KB"
    assert data["Idle Power"].startswith("17.1W")
    assert data["Active (R/W) Power"].startswith("36.6W")
    assert data["Seek Power"].startswith("32.1W")
    assert data["Standby Power"] == "7.2W"
    assert data["Spin-up Power"] == "44.8W"
    assert data["Spin-up Time"] == "16secs"
    assert data["Spin-down Time"] == "10secs"
    assert data["Maximum Disk Rotation Speed"] == "12000 RPM"
    assert data["Minimum Disk Rotation Speed"] == "3600 RPM"
    assert data["RPM Step-Size"] == "1200"
    assert data["delta"] == 20
    assert data["theta"] == 4
