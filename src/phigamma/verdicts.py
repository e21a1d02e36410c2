"""Three-valued verdicts, built only by the report layer: the front end
`cli` and the task bodies in `tasks`.

A verdict is Holds, Fails, or Inconclusive.  Inconclusive means the
tracked precision window was too small to decide; it is never conflated
with Fails.  A task's verdicts leave the window out: the front end
stamps the ring window on each one it reports.
"""

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class Verdict:
    def __init__(self, name, status, detail="", window=None, data=None):
        self.name = name
        self.status = status
        self.detail = detail
        self.window = window
        self.data = {} if data is None else data

    def to_json(self):
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.window is not None:
            out["window"] = self.window
        if self.data:
            out["data"] = self.data
        return out


def holds(name, detail="", window=None, **data):
    return Verdict(name, HOLDS, detail, window, data)


def fails(name, detail="", window=None, **data):
    return Verdict(name, FAILS, detail, window, data)


def inconclusive(name, detail="", window=None, **data):
    return Verdict(name, INCONCLUSIVE, detail, window, data)
