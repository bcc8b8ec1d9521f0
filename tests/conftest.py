import _acceptance_report


def pytest_terminal_summary(terminalreporter):
    if _acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_report.LINES:
            terminalreporter.write_line(line)
