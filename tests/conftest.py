import signal
from contextlib import contextmanager

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@contextmanager
def deadline(seconds, what):
    """Raise TimeoutError in the block once it has run for `seconds`."""

    def overrun(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    # repeat every second: an alarm that lands in a garbage-collector
    # callback (hypothesis installs one) is swallowed there, and a one-shot
    # timer would then let a slow run go on without bound
    signal.setitimer(signal.ITIMER_REAL, seconds, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
