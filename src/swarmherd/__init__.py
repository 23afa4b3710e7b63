"""Leader-based swarm herding on grid graphs with tabular SARSA / Q-Learning.

A single leader agent repels anonymous follower agents off its vertex; the
follower population evolves as a Markov chain over the graph (or as its
deterministic mean-field limit), and a tabular TD-learned policy steers the
leader so the population reaches a target distribution in as few iterations
as possible.
"""

from .dynamics import LeaderState
from .environment import (
    Action,
    DiscretizedState,
    EnvConfig,
    HerdingEnv,
    decode_state,
    encode_state,
    largest_remainder_counts,
    num_states,
)
from .harness import (
    EvalAggregate,
    EpisodeStats,
    RunRecord,
    SweepCell,
    TrainConfig,
    TrainResult,
    derive_seed,
    evaluate,
    sweep,
    train,
)
from .learner import (
    LearnerConfig,
    QTable,
    load_qtable,
    save_qtable,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "DiscretizedState",
    "EnvConfig",
    "EpisodeStats",
    "EvalAggregate",
    "HerdingEnv",
    "LeaderState",
    "LearnerConfig",
    "QTable",
    "RunRecord",
    "SweepCell",
    "TrainConfig",
    "TrainResult",
    "decode_state",
    "derive_seed",
    "encode_state",
    "evaluate",
    "largest_remainder_counts",
    "load_qtable",
    "num_states",
    "save_qtable",
    "sweep",
    "train",
]
