"""Column readers for one run's outcome rows, shared by the tests.

A request's outcome is one row of an
:class:`~repro.serving.outcome_table.OutcomeTable`; tests read its
columns, and these helpers name the two reads that are not a plain
index: a row's error string and a snapshot of a whole row.
"""

from repro.serving.records import Stage


def error_at(table, row: int) -> str:
    """The error string of ``row`` ('' for a plain success)."""
    return table.error_names[table.error_code[row]]


def errors(table) -> list:
    """Every row's error string, in row order."""
    names = table.error_names
    return [names[code] for code in table.error_code.tolist()]


def row_values(table, row: int) -> list:
    """Every column's value in ``row``, to compare one row at two times
    (a table is a view of its recorder's block, so read it again)."""
    values = [getattr(table, name)[row].item() for name in (
        "request_id", "client_id", "send_time", "completion_time",
        "success", "cold_start", "instance_id", "billed_duration_s",
        "inferences", "attempts", "served_by")]
    values.extend(table.stage_column(stage)[row].item()
                  for stage in Stage.ORDER)
    values.append(error_at(table, row))
    return values
