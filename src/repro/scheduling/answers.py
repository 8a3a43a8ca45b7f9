"""The :data:`EXHAUSTED` answer of ``SchedulerPolicy.select_task``.

A leaf module (no imports) so the JobTracker can read the sentinel
without importing the policies, which import the JobTracker's package.
"""


class _Exhausted:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EXHAUSTED"


#: ``select_task`` answer: this job can take no slot of the asked type
#: on any tracker this tick, unless one of its attempts finishes or one
#: of its tasks goes back to PENDING first.
EXHAUSTED = _Exhausted()
