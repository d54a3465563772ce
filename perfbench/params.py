"""Fixed parameters of the end-to-end benchmark.

Everything a workload depends on, apart from the seed, lives here, so two
runs with the same seed see identical inputs.
"""

from __future__ import annotations

#: The paper's deployed list length.
K = 20

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("refresh", "serve-churn")

#: Latency limit on the per-request p99 (ms): the paper's per-request time.
P99_LIMIT_MS = 50.0

#: Environment variables that pin BLAS / OpenMP thread pools; ``run.py``
#: sets each to 1 before numpy is first imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# --- corpus: the `paper` preset's world, users and events scaled down

N_BOOKS = 4300
N_AUTHORS = 1300
#: Few, active users (~32 training pairs each): the writer draws books by
#: popularity within a user's source, so which catalogue a user reads from
#: is all a model can learn beyond popularity, and with ~16 pairs per user
#: the default BPR fit overfits and falls below ``MostReadItems``.
N_BCT_USERS = 600
N_ANOBII_USERS = 1500
N_LOANS = 110_000
N_RATINGS = 80_000
N_SHARDS = 4
ROWS_PER_CHUNK = 65_536
USER_ACTIVITY_SIGMA = 0.3
#: Seed of the corpus (the catalogue world and the event log). It is fixed
#: so the spread between runs measures the system rather than the luck of
#: one generated catalogue; ``--seed`` drives everything else.
CORPUS_SEED = 20230331

#: Merge floors on readings per user and per book; the book floor keeps
#: the merged catalogue near the paper's 2,332 books.
MIN_USER_READINGS = 10
MIN_BOOK_READINGS = 6

# --- set-up

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Epochs of the set-up-trained models (v1, and serve-churn's second model).
BRIEF_EPOCHS = 2

#: Known users sent through the single and batch paths at set-up.
WARMUP_USERS = 400

#: Pre-generated request ids per run (the stream wraps around).
STREAM_LENGTH = 1 << 18

# --- traffic

#: Zipf exponent of the patron ids and the share of unknown ids among them.
ZIPF_EXPONENT = 1.1
COLD_SHARE = 0.05

#: Users per ``recommend_many_responses`` call (one request each).
BATCH = 8

#: Fixed offered rates, users/s: Zipf patron traffic (refresh) and
#: uniform traffic (serve-churn).
ZIPF_RATES = (1500.0, 5000.0)
CHURN_RATES = (1000.0, 2500.0)

#: Length of one low / high / saturation slice (s); rounds cycle them.
SLICE_SECONDS = 0.5

# --- refresh

#: Rebuilds per run; ``refresh_s`` is their median. A traced run traces
#: the last one only, so the first gives the untraced baseline.
REFRESH_CYCLES = 2

#: Rounds of Zipf patron traffic, split over the blocks before, between
#: and after the rebuilds (three in each).
PATRON_ROUNDS = 9

#: Hot swaps with no traffic after each rebuild.
IDLE_SWAPS = 5
