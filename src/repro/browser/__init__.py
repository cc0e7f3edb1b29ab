"""Application-fidelity substrate: the browser/client environment.

Section 3.3 of the paper reports that video services pick bitrates based
on *perceived client rendering capacity*, not only network conditions -
headless browsers or GPU-less clients silently request lower bitrates and
invalidate fairness measurements.  This package models that hazard so it
can be tested: every trial runs its services in one
:class:`ClientEnvironment`, which caps what video ABRs may request.
"""

from .environment import ClientEnvironment

__all__ = ["ClientEnvironment"]
