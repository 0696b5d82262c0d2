"""Reading a `downwash-eval` report back, for the tests."""

from spincam.downwash import DownwashFrameResult
from spincam.errors import ParseError


def read_report(path) -> tuple[list[DownwashFrameResult], dict[str, float]]:
    results = []
    summary: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    try:
                        summary[key] = float(value)
                    except ValueError:
                        pass
            continue
        if line.startswith("frame_id"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{line_no}: expected 'frame_id,gt,pred' row")
        try:
            results.append(
                DownwashFrameResult(int(parts[0]), bool(int(parts[1])), bool(int(parts[2])))
            )
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
    return results, summary
