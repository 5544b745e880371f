"""Command-line front end for selection, rewards, training, and analysis.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numeric
divergence, 5 out of memory (a one-line ``error:`` message, no traceback).
``select`` and ``passk`` check ``--k`` before they open the trace. Every
command prints its resolved configuration on stderr and is idempotent on
read-only inputs. Set HEAL_LOG=debug|info|warning to get progress logging
on stderr (an unknown level means info). Only ``sim`` imports the
simulator, and logging is imported only under HEAL_LOG, so the trace
commands start without either.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
import sys

import click

from .analysis import curve_table, pass_at_k_per_prompt
from .dynamics import SIMILARITIES
from .eda import batch_rewards
from .errors import DivergenceError, ValidationError
from .selection import DEFAULT_SELECT_K, score_groups, select_top_k
from .trace_io import export_heatmap, load_traces, read_trace_records
# The traced benchmark (perfbench/tracer.py) wraps heal.cli.trajectory_from_record by name.
from .trace_io import trajectory_from_record  # noqa: F401


def _setup_logging() -> None:
    wanted = os.environ.get("HEAL_LOG", "")
    if not wanted:
        return
    import logging

    level = getattr(logging, wanted.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _log_info(msg: str, *args) -> None:
    """Progress line for the "heal" logger. Unless HEAL_LOG (or the caller)
    has loaded logging, no handler exists to emit it, so logging stays
    unimported and off every command's start-up."""
    if "logging" in sys.modules:
        import logging

        logging.getLogger("heal").info(msg, *args)


def _echo_config(**settings) -> None:
    for key, value in settings.items():
        click.echo(f"{key} = {value}", err=True)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except DivergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except MemoryError as exc:
            click.echo(f"error: out of memory: {str(exc) or 'allocation failed'}", err=True)
            sys.exit(5)

    return wrapper


def _k_values(parts: list[str], error: str) -> list[int]:
    """The integers of the non-blank ``--k`` parts, all of them >= 1, or a
    ValidationError with the message ``error``."""
    try:
        ks = [int(part) for part in parts if part.strip()]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise ValidationError(error)
    return ks


def _write_csv(path, header, rows) -> None:
    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Entropy-dynamics toolkit: data selection, rewards, toy RL runs."""
    _setup_logging()


@main.command()
@click.option("--traces", "traces_path", required=True, type=click.Path(), help="input trace JSONL")
@click.option("--k", "k_text", metavar="INTEGER", default=str(DEFAULT_SELECT_K),
              show_default=True, help="prompts to keep")
@click.option("--out", "out_path", required=True, type=click.Path(), help="output JSONL")
@_guarded
def select(traces_path: str, k_text: str, out_path: str) -> None:
    """Score prompts by uncertainty x diversity and keep the top K."""
    _echo_config(command="select", traces=traces_path, k=k_text, out=out_path)
    (k,) = _k_values([k_text], f"--k must be an integer >= 1, got {k_text}")
    groups = load_traces(traces_path)
    scores = score_groups(groups)
    chosen = select_top_k(scores, k)
    with open(out_path, "w", encoding="utf-8") as fh:
        for s in scores:
            fh.write(json.dumps(vars(s)) + "\n")
        fh.write(json.dumps({"selected": chosen}) + "\n")
    _log_info("scored %d prompts, kept %d", len(scores), len(chosen))


@main.command()
@click.option("--traces", "traces_path", required=True, type=click.Path(), help="input trace JSONL")
@click.option("--sim", "sim_name", type=click.Choice(list(SIMILARITIES)), default="kl",
              show_default=True, help="dynamics similarity")
@click.option("--out", "out_path", required=True, type=click.Path(), help="output JSONL")
@_guarded
def reward(traces_path: str, sim_name: str, out_path: str) -> None:
    """Emit accuracy plus alignment-bonus rewards for a trace batch."""
    _echo_config(command="reward", traces=traces_path, sim=sim_name, out=out_path)
    trajectories = read_trace_records(traces_path)
    rewards = batch_rewards(trajectories, sim_name)
    with open(out_path, "w", encoding="utf-8") as fh:
        for r in rewards:
            # Only the pool similarities can be None: an empty pool's is left out.
            fh.write(json.dumps({k: v for k, v in vars(r).items() if v is not None}) + "\n")
    click.echo(_reward_summary(rewards), err=True)
    _log_info("rewarded %d trajectories", len(rewards))


def _reward_summary(rewards) -> str:
    """One line on the bonus decisions: how many targets were scored, the
    share that got the bonus, exact ``s_inter == s_intra`` ties (which pay
    nothing), and targets with no intra or no inter pool."""
    targets = [r for r in rewards if r.domain == "target"]
    rate = f"{sum(r.r_eda for r in targets) / len(targets):.4f}" if targets else "n/a"
    ties = sum(r.s_intra is not None and r.s_inter == r.s_intra for r in targets)
    empty_intra = sum(r.s_intra is None for r in targets)
    empty_inter = sum(r.s_inter is None for r in targets)
    return (f"reward summary: targets={len(targets)} bonus_rate={rate} ties={ties} "
            f"empty_intra={empty_intra} empty_inter={empty_inter}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="flat key = value config file")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="run directory to create")
@click.option("--seed", type=int, default=None, help="override the config seed")
@_guarded
def sim(config_path: str, out_dir: str, seed: int | None) -> None:
    """Train the tabular policy and persist metrics/config/policy."""
    # Only this command needs the simulator; the trace commands start without it.
    from .simulator import training

    cfg = training.load_config(config_path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    click.echo(training.config_text(cfg), err=True, nl=False)
    record = training.train(cfg, out_dir)
    _log_info("run %s: %d steps, %d metric rows", record.status,
              record.steps_completed, len(record.metrics))


@main.command()
@click.option("--traces", "traces_path", required=True, type=click.Path(), help="input trace JSONL")
@click.option("--k", "ks_text", default="1,5,10", show_default=True,
              help="comma-separated subset sizes")
@click.option("--out", "out_path", default=None, type=click.Path(), help="CSV path (default stdout)")
@_guarded
def passk(traces_path: str, ks_text: str, out_path) -> None:
    """Exact pass@k per prompt, plus the mean over prompts."""
    _echo_config(command="passk", traces=traces_path, k=ks_text, out=out_path)
    ks = _k_values(ks_text.split(","),
                   f"--k must be comma-separated integers >= 1, got {ks_text!r}")
    groups = load_traces(traces_path)
    rows = pass_at_k_per_prompt(groups, ks)
    header = ["prompt_id", "n", "c"] + [f"pass@{k}" for k in ks]
    table = [[pid, n, c] + values for pid, n, c, values in rows]
    means = [sum(r[3 + i] for r in table) / len(table) for i in range(len(ks))]
    table.append(["mean", None, None] + means)
    _write_csv(out_path, header, table)


@main.command()
@click.option("--run", "run_dirs", multiple=True, required=True, type=click.Path(),
              help="run directory (repeatable)")
@click.option("--label", "labels", multiple=True, help="label per run, same order")
@click.option("--out", "out_path", default=None, type=click.Path(), help="CSV path (default stdout)")
@_guarded
def curves(run_dirs, labels, out_path) -> None:
    """Emit entropy/reward curves from run metrics as plot-ready CSV."""
    _echo_config(command="curves", runs=",".join(run_dirs),
                 labels=",".join(labels) or None, out=out_path)
    header, rows = curve_table(list(run_dirs), list(labels) if labels else None)
    _write_csv(out_path, header, rows)


@main.command()
@click.option("--traces", "traces_path", required=True, type=click.Path(), help="input trace JSONL")
@click.option("--out", "out_path", required=True, type=click.Path(), help="output CSV")
@_guarded
def heatmap(traces_path: str, out_path: str) -> None:
    """Pairwise entropy-dynamics distance matrix as CSV."""
    _echo_config(command="heatmap", traces=traces_path, out=out_path)
    trajectories = read_trace_records(traces_path)
    export_heatmap(trajectories, out_path)
    _log_info("wrote %dx%d heatmap", len(trajectories), len(trajectories))


if __name__ == "__main__":
    main()
