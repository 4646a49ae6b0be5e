"""User-study simulation: tasks, agents, cost model, crossover runner."""

from repro.study.agents import AgentOutcome, SolrAgent, TPFacetAgent
from repro.study.costmodel import CostModel, UserProfile
from repro.study.metrics import (
    f1_score,
    pair_rank,
    pair_similarity_ranking,
    retrieval_error,
)
from repro.study.runner import Measurement, StudyResults, run_study
from repro.study.workload import (
    GeneratedQuery,
    random_conjunctive_queries,
    random_subsets,
)
from repro.study.tasks import (
    AlternativeTask,
    ClassifierTask,
    SimilarPairTask,
    TaskSuite,
    mushroom_task_suite,
)

__all__ = [
    "f1_score", "pair_similarity_ranking", "pair_rank", "retrieval_error",
    "ClassifierTask", "SimilarPairTask", "AlternativeTask",
    "TaskSuite", "mushroom_task_suite",
    "CostModel", "UserProfile",
    "SolrAgent", "TPFacetAgent", "AgentOutcome",
    "Measurement", "StudyResults", "run_study",
    "GeneratedQuery", "random_subsets", "random_conjunctive_queries",
]
