"""Scoring runs against relevance judgments: AP, P@10, %no, and diffs.

Run:  python3 demos/05_evaluation.py
"""

from frank import (RankedList, evaluate_run, format_diff, format_report,
                   format_run, parse_qrels, run_from_ranked)

# Judgments: topic, ignored column, document, graded relevance (>=1 counts).
qrels = parse_qrels("""
t1 0 doc-a 1
t1 0 doc-b 0
t1 0 doc-c 2
t2 0 doc-d 1
""")

# Two competing systems' rankings for the same topics, as the scorers
# return them: per topic, (doc_id, score, rank) entries.
system_a = run_from_ranked([
    RankedList("t1", [
        ("doc-a", 0.9, 1), ("doc-b", 0.7, 2), ("doc-c", 0.3, 3)]),
    RankedList("t2", [("doc-x", 0.8, 1), ("doc-d", 0.6, 2)]),
], "system-a")
system_b = run_from_ranked([
    RankedList("t1", [
        ("doc-a", 0.8, 1), ("doc-c", 0.6, 2), ("doc-b", 0.2, 3)]),
    RankedList("t2", [("doc-d", 0.9, 1)]),
], "system-b")

print("run file exchange format (6-decimal scores, sorted topics):")
print(format_run(system_a))

report_a = evaluate_run(system_a, qrels)
report_b = evaluate_run(system_b, qrels)

print("per-topic metrics for system-a:")
for topic, metrics in report_a.per_topic.items():
    flag = "no relevant in top 10" if metrics.no_rel_top10 else ""
    print(f"  {topic}: AP {metrics.ap:.4f}  P@10 {metrics.p10:.2f}  {flag}")
print()

print(format_report(report_a, "system-a"))
print(format_diff(report_a, report_b, "system-a", "system-b"))
print("(second row is the signed delta of system-b over system-a)")
