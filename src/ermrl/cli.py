"""Command-line entry point: generate | train | eval | compare | noise-sweep."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict
from pathlib import Path

from .agents import DdpgConfig
from .baselines import MctsConfig
from .geo import ScenarioError, load_world, save_world
from .harness import (ExperimentSpec, ScenarioParams, TrainConfig, compare_runs,
                      eval_chain, evaluate_spec, generate_scenario, mean_response,
                      noise_sweep, read_run_summary, save_agents, train_hlp_agent,
                      train_llp_agent, write_noise_matrix, write_run_summary)

PLANNERS = ("drl", "mcts", "pmedian", "greedy", "static", "random")
CURVE_CHAINS = 3  # each learning-curve point averages the first this many eval chains


class ConfigError(ValueError):
    pass


def _parse_seed_range(text: str) -> tuple[int, ...]:
    """Accepts 'a:b' half-open ranges or comma lists; an empty set is an error."""
    if ":" in text:
        a, b = text.split(":")
        seeds = tuple(range(int(a), int(b)))
    else:
        seeds = tuple(int(x) for x in text.split(",") if x)
    if not seeds:
        raise ConfigError(f"seed range {text!r} is empty")
    return seeds


def cmd_generate(args) -> int:
    params = ScenarioParams(nx=args.nx, ny=args.ny, n_depots=args.depots,
                            n_hospitals=args.hospitals, n_regions=args.regions,
                            citywide_rate_per_hour=args.rate)
    world = generate_scenario(params, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_world(world, out)
    print(f"wrote scenario to {out} ({world.grid.n_cells} cells, "
          f"{len(world.depots)} depots, {world.seg.n_regions} regions)")
    return 0


def cmd_train(args) -> int:
    world = load_world(args.scenario)
    ddpg = DdpgConfig(eps_decay_episodes=max(args.episodes_llp - 20, 1))
    cfg = TrainConfig(episodes_llp=args.episodes_llp, episodes_hlp=args.episodes_hlp,
                      horizon_s=args.horizon_days * 86400.0,
                      fleet_size=args.fleet, ddpg=ddpg)
    train_seeds = list(_parse_seed_range(args.train_seeds))
    eval_seeds = _parse_seed_range(args.eval_seeds)
    if set(train_seeds) & set(eval_seeds):
        raise ConfigError("train and eval chain seeds overlap")
    cfg.default_fleet(world)  # a fleet that does not fit exits before any file is written
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_file = open(out_dir / "curves.csv", "w", newline="")
    curve = csv.writer(curve_file)
    curve.writerow(["phase", "region", "episode", "mean_response_s"])
    curve_spec = ExperimentSpec(scenario_path=args.scenario, planner="drl",
                                out_dir=args.out_dir, eval_seeds=eval_seeds[:CURVE_CHAINS],
                                fleet_size=cfg.fleet_size, horizon_s=cfg.horizon_s,
                                seed=args.seed)
    llp_agents = {}

    def curve_hook(region):
        """Every curve_every episodes, the episode's agent evaluated as `ermrl
        eval` runs drl: a region agent alone in its region, the city agent
        over llp_agents."""
        def hook(episode, agent):
            if args.curve_every <= 0 or episode % args.curve_every:
                return
            agents = (llp_agents, agent) if region is None else ({region: agent}, None)
            mean = mean_response([eval_chain(curve_spec, world, agents, s, region)
                                  for s in curve_spec.eval_seeds])
            curve.writerow(["hlp" if region is None else "llp", region, episode,
                            "" if mean is None else repr(mean)])
        return hook

    for g in world.seg.region_ids:
        print(f"training region agent {g} "
              f"({len(world.region_depots(g))} depots, {cfg.episodes_llp} episodes)")
        llp_agents[g] = train_llp_agent(world, g, cfg, train_seeds, args.seed,
                                        episode_hook=curve_hook(g))

    hlp_agent = None
    if world.seg.n_regions > 1 and args.episodes_hlp > 0:
        print(f"training city agent ({cfg.episodes_hlp} episodes)")
        hlp_agent = train_hlp_agent(world, llp_agents, cfg, train_seeds, args.seed,
                                    episode_hook=curve_hook(None))
    curve_file.close()
    learners = [("llp", g, agent) for g, agent in llp_agents.items()]
    if hlp_agent is not None:
        learners.append(("hlp", "", hlp_agent))
    stat_names = ["critic_loss", "actor_q", "explore_eps", "buffer_size"]
    with open(out_dir / "train_log.csv", "w", newline="") as f:
        log = csv.writer(f)
        log.writerow(["phase", "region", "update", *stat_names])
        for phase, region, agent in learners:
            for k, stats in enumerate(agent.updates):
                log.writerow([phase, region, k, *(repr(stats[name]) for name in stat_names)])
    manifest = {
        "ddpg": asdict(ddpg),
        "train": {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in asdict(cfg).items() if k != "ddpg"},
        "seed": args.seed,
        "train_seeds": train_seeds,
        "eval_seeds": list(eval_seeds),
        "episodes_llp": cfg.episodes_llp,
        "episodes_hlp": cfg.episodes_hlp,
        "final_explore_eps": ddpg.explore_eps(cfg.episodes_llp),
    }
    save_agents(out_dir, llp_agents, hlp_agent, manifest)
    print(f"checkpoints, learning curves and the update log in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    world = load_world(args.scenario)
    if args.planner == "drl" and not args.checkpoint_dir:
        raise ConfigError("--checkpoint-dir is required for the trained planner")
    spec = ExperimentSpec(
        scenario_path=args.scenario, planner=args.planner, out_dir=args.out_dir,
        eval_seeds=_parse_seed_range(args.eval_seeds),
        fleet_size=args.fleet, horizon_s=args.horizon_days * 86400.0,
        sigma_rate=args.noise_rate, sigma_time=args.noise_time,
        alpha=args.alpha, mcts=MctsConfig(iteration_limit=args.mcts_iterations,
                                          n_samples=args.mcts_samples),
        seed=args.seed)
    results = evaluate_spec(spec, world, args.checkpoint_dir, workers=args.workers)
    write_run_summary(results, args.out_dir)
    mean = mean_response(results)
    print(f"{args.planner}: {len(results)} chains, mean response {mean:.1f} s"
          if mean is not None else "no incidents")
    return 0


def cmd_compare(args) -> int:
    named = []
    for item in args.runs:
        if "=" not in item:
            raise ConfigError("runs must be passed as name=run_dir")
        name, run_dir = item.split("=", 1)
        named.append((name, read_run_summary(run_dir)))
    rows = compare_runs(named, n_perms=args.perms, seed=args.seed)
    out = Path(args.out) if args.out else None
    if out:
        with open(out, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
    for r in rows:
        print(f"{r['reference']} vs {r['candidate']}: "
              f"{r['mean_reference_s']:.1f} s vs {r['mean_candidate_s']:.1f} s, "
              f"p = {r['p_value']:.4f}  (n = {r['n_chains']})")
    return 0


def cmd_noise_sweep(args) -> int:
    world = load_world(args.scenario)
    sigmas = [float(s) for s in args.sigmas.split(",")]
    spec = ExperimentSpec(
        scenario_path=args.scenario, planner="drl", out_dir=args.out_dir,
        eval_seeds=_parse_seed_range(args.eval_seeds),
        fleet_size=args.fleet, horizon_s=args.horizon_days * 86400.0,
        seed=args.seed)
    rows = noise_sweep(spec, world, args.checkpoint_dir, sigmas,
                       workers=args.workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_noise_matrix(rows, out_dir / "noise_matrix.csv")
    for r in rows:
        mean = r["mean_response_s"]
        print(f"sigma_rate={r['sigma_rate']:.2f} sigma_time={r['sigma_time']:.2f} -> "
              + ("no incidents" if mean is None else f"{mean:.1f} s"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ermrl",
                                description="responder stationing: simulate, train, evaluate")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic scenario (and chains)")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--nx", type=int, default=6)
    g.add_argument("--ny", type=int, default=6)
    g.add_argument("--depots", type=int, default=8)
    g.add_argument("--hospitals", type=int, default=2)
    g.add_argument("--regions", type=int, default=2)
    g.add_argument("--rate", type=float, default=4.0,
                   help="citywide incidents per hour")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train region agents, then the city agent")
    t.add_argument("--scenario", required=True)
    t.add_argument("--out-dir", required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--episodes-llp", type=int, default=120)
    t.add_argument("--episodes-hlp", type=int, default=40)
    t.add_argument("--horizon-days", type=float, default=2.0)
    t.add_argument("--fleet", type=int, default=None)
    t.add_argument("--train-seeds", default="0:50")
    t.add_argument("--eval-seeds", default="50:60")
    t.add_argument("--curve-every", type=int, default=10)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="run evaluation chains under a planner")
    e.add_argument("--scenario", required=True)
    e.add_argument("--out-dir", required=True)
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--planner", choices=PLANNERS, default="drl")
    e.add_argument("--checkpoint-dir")
    e.add_argument("--eval-seeds", default="50:60")
    e.add_argument("--fleet", type=int, default=None)
    e.add_argument("--horizon-days", type=float, default=11.0)
    e.add_argument("--noise-rate", type=float, default=0.0)
    e.add_argument("--noise-time", type=float, default=0.0)
    e.add_argument("--alpha", type=float, default=1.0)
    e.add_argument("--mcts-iterations", type=int, default=1000)
    e.add_argument("--mcts-samples", type=int, default=50)
    e.add_argument("--workers", type=int, default=1)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("compare", help="paired permutation tests between runs")
    c.add_argument("runs", nargs="+", help="name=run_dir, first is the reference")
    c.add_argument("--perms", type=int, default=100_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(func=cmd_compare)

    n = sub.add_parser("noise-sweep", help="evaluate under observation noise grid")
    n.add_argument("--scenario", required=True)
    n.add_argument("--checkpoint-dir", required=True)
    n.add_argument("--out-dir", required=True)
    n.add_argument("--seed", type=int, required=True)
    n.add_argument("--sigmas", default="0,0.1,0.2,0.3")
    n.add_argument("--eval-seeds", default="50:60")
    n.add_argument("--fleet", type=int, default=None)
    n.add_argument("--horizon-days", type=float, default=2.0)
    n.add_argument("--workers", type=int, default=1)
    n.set_defaults(func=cmd_noise_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (ConfigError, ScenarioError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
