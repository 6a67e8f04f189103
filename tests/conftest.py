from hypothesis import settings

from . import criterion_log

# every property test draws the same examples on every run, with no time limit
settings.register_profile("lyprobe", derandomize=True, deadline=None)
settings.load_profile("lyprobe")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not criterion_log.lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(criterion_log.lines):
        terminalreporter.write_line(criterion_log.lines[number])
