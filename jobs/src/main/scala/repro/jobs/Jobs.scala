package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Shared session bootstrap for spark-submit entrypoints. */
object Jobs {
  def session(app: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def argLong(args: Array[String], i: Int, default: Long): Long =
    if (args.length > i) args(i).toLong else default

  def argLongs(args: Array[String], i: Int, default: Seq[Long]): Seq[Long] =
    if (args.length > i) args(i).split(",").map(_.trim.toLong).toSeq else default
}

/** Table 1: `spark-submit ... Table1Job [n]` (default n=200000). */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("asrs-table1")
    val rows = Experiments.table1(spark, Jobs.argLong(args, 0, 200000))
    println(Experiments.render(
      "Table 1: ratio of index cells searched / index size",
      Seq("granularity", "k(q)", "ratio%", "indexMB", "runtimeMs"),
      rows.map(r => Seq[Any](s"${r.granularity}x${r.granularity}", r.k,
                        f"${100 * r.ratioSearched}%.1f%%", r.indexMB, r.runtimeMs))))
    spark.stop()
  }
}

/** Table 2: `spark-submit ... Table2Job [n1,n2]` (default 50000,100000). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("asrs-table2")
    val rows = Experiments.table2(spark, Jobs.argLongs(args, 0, Seq(50000, 100000)))
    println(Experiments.render(
      "Table 2: approximation quality (d_app/d_opt) for F1",
      Seq("cardinality", "delta", "quality", "runtimeMs"),
      rows.map(r => Seq[Any](r.cardinality, r.delta, r.quality, r.runtimeMs))))
    spark.stop()
  }
}

/** Figs 8/10 claim: `spark-submit ... SpeedupJob [n1,n2,...]`. */
object SpeedupJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("asrs-speedup")
    val ns = Jobs.argLongs(args, 0, Seq(10000, 20000, 40000, 80000))
    val rows = Experiments.speedup(spark, ns, k = 10, useF2 = false)
    println(Experiments.render(
      "DS-Search vs Base (F1, 10q)",
      Seq("n", "baseMs", "dsMs", "base/ds", "agreed"),
      rows.map(r => Seq[Any](r.n, r.baseMs, r.dsMs, r.speedup, r.agreed))))
    spark.stop()
  }
}

/** Fig 13 claim: `spark-submit ... MaxRSJob [n1,n2,...]`. */
object MaxRSJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("asrs-maxrs")
    val ns = Jobs.argLongs(args, 0, Seq(200000, 500000, 1000000))
    val rows = Experiments.maxrs(spark, ns, k = 10)
    println(Experiments.render(
      "DS-MaxRS vs OE (10q)",
      Seq("n", "oeMs", "dsMs", "oe/ds", "count", "agreed"),
      rows.map(r => Seq[Any](r.n, r.oeMs, r.dsMs,
                        r.oeMs.toDouble / math.max(1, r.dsMs), r.count, r.agreed))))
    spark.stop()
  }
}
