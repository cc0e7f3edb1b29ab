"""Table 1: service inventory with solo max throughput and flow counts.

Regenerates the 'Max Xput' column by solo calibration at 50 Mbps and
cross-checks the documented caps (13/14/8 Mbps video ladders, OneDrive's
upstream throttle, unbounded file transfers).
"""

from repro.core.calibration import calibrate_catalog, format_table1

from .harness import CATALOG, LONG_CONFIG, MODERATELY, report


def _run_table1():
    ids = [
        "youtube", "netflix", "vimeo",
        "dropbox", "gdrive", "onedrive", "mega",
        "meet", "teams",
        "wikipedia", "news_google", "youtube_web",
        "iperf_bbr", "iperf_cubic", "iperf_reno",
    ]
    calibrations = calibrate_catalog(
        CATALOG, MODERATELY, LONG_CONFIG, service_ids=ids, seed=3
    )
    return calibrations


def test_table1_service_inventory():
    calibrations = _run_table1()
    report(
        "Table 1 - Services supported in the Prudentia testbed "
        "(solo calibration at 50 Mbps)",
        format_table1(CATALOG, calibrations),
    )
    # Sanity: the documented shapes hold.
    assert calibrations["iperf_bbr"].is_link_limited
    assert calibrations["youtube"].solo_throughput_bps < 16e6
    assert calibrations["netflix"].solo_throughput_bps < 10e6
    assert calibrations["meet"].solo_throughput_bps < 2e6
    assert calibrations["onedrive"].solo_throughput_bps < 47e6
