"""Shared SparkSession builder for the job entrypoints.

Mirrors the conftest fixture's configuration.  ``spark.driver.memory``
must be set before the JVM launches, so it goes into
``PYSPARK_SUBMIT_ARGS`` at import time (same mechanism as conftest.py).
It is a deployment setting: the driver JVM holds the broadcast instance
and the collected scores of the exact evaluator's ``mapInPandas`` batches,
which grow with the graph; walks, sketches and RR sets live in the Python
process, not in the JVM heap.
"""
import os

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '12g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
