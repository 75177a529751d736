"""Command-line surface: gen-synth, train, evaluate, recommend,
inspect-attention, checkpoint-info.

Every subcommand is deterministic under a fixed --seed; train's per-epoch
records carry wall-clock seconds, so its determinism contract is on the
checkpoint bytes. Each run echoes its fully resolved configuration so any
result is reproducible from the log alone.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checkpoint as ckpt
from . import data as data_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import recommend as rec
from . import training as training_mod
from .config_io import config_to_kv, parse_config_file
from .errors import CheckpointError, ConfigError, DataError


def _parse_basket(text: str):
    items = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not items:
        raise DataError("empty basket argument")
    try:
        return [int(p) for p in items]
    except ValueError:
        raise DataError(f"basket must be comma-separated item ids, got {text!r}") from None


def _echo_config(text: str):
    for line in text.strip().splitlines():
        print(f"config {line}")


def _load_model(args):
    """Load --ckpt, then reject a --scoring kind its contexts cannot take."""
    config, params = ckpt.load_checkpoint(args.ckpt)
    if args.scoring:
        channels, merges, _ = model_mod.layer_channel_plan(config)[-1]
        rec.check_scoring(args.scoring, 1 if merges else channels)
    return config, params


def _load_data(args):
    catalog = data_mod.load_catalog(args.catalog) if args.catalog else None
    return data_mod.load_baskets(args.data, catalog=catalog)


def cmd_gen_synth(args) -> int:
    spec = data_mod.SynthSpec(
        num_patterns=args.num_patterns,
        items_per_pattern=args.items_per_pattern,
        patterns_per_basket=(args.min_patterns, args.max_patterns),
        noise_probability=args.noise_prob,
        basket_length=(args.min_len, args.max_len),
        num_baskets=args.num_baskets,
        seed=args.seed,
        within_pool_decay=args.pool_decay,
        within_pool_floor=args.pool_floor,
    )
    catalog, baskets, truth = data_mod.gen_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    baskets_path = os.path.join(args.out, "baskets.txt")
    catalog_path = os.path.join(args.out, "catalog.tsv")
    pools_path = os.path.join(args.out, "pattern_pools.tsv")
    truth_path = os.path.join(args.out, "basket_truth.tsv")
    data_mod.save_baskets(baskets_path, baskets)
    data_mod.save_catalog(catalog_path, catalog)
    with open(pools_path, "w", encoding="utf-8", newline="\n") as fh:
        for p, pool in enumerate(truth.pools):
            fh.write(f"{p}\t{','.join(str(i) for i in pool)}\n")
    with open(truth_path, "w", encoding="utf-8", newline="\n") as fh:
        for b, patterns, prov in zip(baskets, truth.basket_patterns, truth.provenance):
            pairs = ",".join(f"{i}:{p}" for i, p in zip(b.items, prov))
            fh.write(f"{b.basket_id}\t{','.join(str(p) for p in patterns)}\t{pairs}\n")
    print(f"wrote baskets={baskets_path} n={len(baskets)}")
    print(f"wrote catalog={catalog_path} items={catalog.num_items}")
    print(f"wrote pools={pools_path} patterns={spec.num_patterns}")
    print(f"wrote truth={truth_path}")
    return 0


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    catalog, baskets = _load_data(args)
    config, train_config = parse_config_file(text, num_items=catalog.num_items)
    if train_config is None:
        raise ConfigError("config file has no training keys (epochs is required)")
    if args.seed is not None:
        train_config.seed = args.seed
    _echo_config(config_to_kv(config) + config_to_kv(train_config))
    params = model_mod.init_params(config, seed=train_config.seed)

    def log(report):
        lengths = ";".join(f"{L}:{v:.6f}" for L, v in report.per_length_nll.items())
        print(f"epoch={report.epoch} mean_nll={report.mean_nll:.6f}"
              f" seconds={report.seconds:.3f} sequences={report.num_sequences}"
              f" steps={report.num_steps} per_length={lengths}", flush=True)

    params, _reports = training_mod.train(baskets, config, params, train_config, log=log)
    ckpt.save_checkpoint(args.out, config, params)
    print(f"wrote checkpoint={args.out}")
    return 0


def _check_cutoffs(num_items, instances):
    """Fail before any query when an instance leaves fewer items to rank
    than the largest metric cutoff."""
    largest = max(len(inst.inputs) for inst in instances)
    need = max(metrics_mod.CUTOFFS)
    if num_items - largest < need:
        raise DataError(f"evaluate: catalog of {num_items} items leaves {num_items - largest} "
                        f"to rank after the largest input basket ({largest} items); "
                        f"the metrics need {need}")


def cmd_evaluate(args) -> int:
    if args.k < max(metrics_mod.CUTOFFS):
        raise ConfigError(f"--k must be at least {max(metrics_mod.CUTOFFS)}")
    catalog, baskets = _load_data(args)
    instances, skipped = data_mod.make_eval_instances(
        baskets, input_fraction=args.input_fraction, seed=args.seed,
        temporal=args.temporal, instances_per_basket=args.instances_per_basket)
    if not instances:
        raise DataError("no usable evaluation instances (all baskets too short?)")

    pairs = []
    if args.baseline:
        if not args.train_data:
            raise ConfigError("--baseline requires --train-data for fitting")
        _, train_baskets = data_mod.load_baskets(args.train_data, catalog=catalog)
        kind = {"pop": metrics_mod.POP, "cp": metrics_mod.CP,
                "itemcf": metrics_mod.ITEM_CF}[args.baseline]
        _check_cutoffs(catalog.num_items, instances)
        model = metrics_mod.CountBaseline(kind, catalog.num_items).fit(train_baskets)
        for inst in instances:
            ranked = model.ranked(inst.inputs, args.k)
            pairs.append((ranked, inst.labels))
        if model.unseen_tally:
            print(f"warning unseen_items={model.unseen_tally}", file=sys.stderr)
    else:
        if not args.ckpt:
            raise ConfigError("either --ckpt or --baseline is required")
        config, params = _load_model(args)
        checked = [model_mod._item_ids(i.inputs, "evaluate", i.basket_id) for i in instances]
        model_mod.check_baskets(checked, [i.basket_id for i in instances], config, "evaluate")
        _check_cutoffs(config.num_items, instances)
        _echo_config(config_to_kv(config))
        for i, (inst, ids) in enumerate(zip(instances, checked)):
            k = min(args.k, config.num_items - len(set(inst.inputs)))
            out = rec.recommend_topk(model_mod._Checked(ids), config, params, k,
                                     scoring_kind=args.scoring or None,
                                     fesf_temperature=args.fesf_temperature,
                                     rng_seed=args.seed + i)
            pairs.append((out.item_ids, inst.labels))

    report = metrics_mod.compute_metrics(pairs)
    print(f"instances={report.instance_count} skipped={skipped}")
    print(metrics_mod.format_report(report))
    for line in metrics_mod.report_records(report):
        print(line)
    return 0


def cmd_recommend(args) -> int:
    config, params = _load_model(args)
    basket = _parse_basket(args.basket)
    out = rec.recommend_topk(basket, config, params, args.k,
                             scoring_kind=args.scoring or None,
                             fesf_temperature=args.fesf_temperature,
                             rng_seed=args.seed)
    for rank, (item, score) in enumerate(zip(out.item_ids, out.scores), 1):
        print(f"rank={rank} item={item} score={score:.8e}")
    return 0


def cmd_inspect_attention(args) -> int:
    config, params = _load_model(args)
    basket = _parse_basket(args.basket)
    rec.export_attention(basket, config, params, args.out, k=args.k,
                         rng_seed=args.seed,
                         scoring_kind=args.scoring or None,
                         fesf_temperature=args.fesf_temperature)
    print(f"wrote attention={args.out} steps={len(basket)}")
    return 0


def cmd_checkpoint_info(args) -> int:
    info = ckpt.checkpoint_info(args.ckpt)
    print(f"magic={ckpt.MAGIC.decode()} version={info['version']}")
    _echo_config(info["config_text"])
    for name, shape in info["tensors"]:
        dims = "x".join(str(d) for d in shape)
        print(f"tensor name={name} shape={dims}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npa", description="Codebook-attention basket completion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # The options of every subcommand that serves baskets from a checkpoint.
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--scoring", choices=(rec.SOFTMAX, rec.MEAN_AGGREGATE, rec.FESF),
                         default=None)
    serving.add_argument("--fesf-temperature", type=float, default=1.0)
    serving.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-synth", help="generate a planted-pattern synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--num-baskets", type=int, default=1000)
    p.add_argument("--num-patterns", type=int, default=8)
    p.add_argument("--items-per-pattern", type=int, default=25)
    p.add_argument("--min-patterns", type=int, default=1)
    p.add_argument("--max-patterns", type=int, default=3)
    p.add_argument("--noise-prob", type=float, default=0.1)
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--pool-decay", type=float, default=0.0,
                   help="geometric within-pool popularity decay (0 = uniform)")
    p.add_argument("--pool-floor", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="basket file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--catalog", default=None)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[serving], help="rank held-out items and report metrics")
    p.add_argument("--data", required=True, help="test basket file")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--baseline", choices=("pop", "cp", "itemcf"), default=None)
    p.add_argument("--train-data", default=None, help="baskets for baseline fitting")
    p.add_argument("--catalog", default=None)
    p.add_argument("--k", type=int, default=100, help="ranking depth")
    p.add_argument("--input-fraction", type=float, default=0.5)
    p.add_argument("--instances-per-basket", type=int, default=1)
    p.add_argument("--temporal", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", parents=[serving], help="complete one basket")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--basket", required=True, help="comma-separated item ids")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("inspect-attention", parents=[serving],
                       help="export per-step attention records")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--basket", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_inspect_attention)

    p = sub.add_parser("checkpoint-info", help="print config and tensor shapes")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_checkpoint_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError, FloatingPointError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
