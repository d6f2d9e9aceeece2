package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** One benchmark run: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * A closed loop with one client: set-up of every dataset (`setup_s` is the
  * median over datasets), an untimed warm-up, then timed calls, one at a
  * time, until `--seconds` have passed. Every call is checked
  * ([[Ops.check]]). With `--trace 1` the timed calls are replaced by
  * [[Traced]] rounds that time each layer from outside. The last stdout line
  * is the result object.
  */
object Main {
  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, scratch: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), kv.getOrElse("seed", "7").toLong, kv.getOrElse("seconds", "10").toInt,
         kv.getOrElse("trace", "0") == "1", kv.getOrElse("scratch", "."))
  }

  /** The benchmark's own session: `local[1]`, one task at a time, with a
    * pinned leaf parallelism so `spark.range` — and with it
    * `SynthData.pois`, which seeds `rand` per partition — yields the same
    * objects on any machine. At n = 1k a job is mostly scheduling, which
    * more task threads do not shorten; on a 4-vCPU VM with CPU steal,
    * `local[4]` made the GI-DS figures vary more from run to run.
    */
  def session(scratch: String): SparkSession = {
    val s = SparkSession.builder
      .master("local[1]")
      .appName("asrs-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.leafNodeDefaultParallelism", "4")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", scratch)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted; val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload)
    val spark = session(o.scratch)
    val code =
      try {
        val (result, meta) = if (o.trace) Traced.run(spark, w, o) else timedRun(spark, w, o)
        val json = new ObjectMapper().registerModule(DefaultScalaModule)
        println(json.writeValueAsString(meta))
        println(json.writeValueAsString(result))
        0
      } catch {
        case e: Exception =>
          Console.err.println(s"[perfbench] run failed: $e")
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }

  /** Untimed warm-up before the timed phase of a run. */
  val WarmupSeconds = 20

  /** Visit `queries` in turn until each has been visited once and `seconds`
    * have passed; returns the ops and the number of visits.
    */
  def visitFor(queries: Seq[Query], seconds: Int, refs: mutable.Map[Query, Option[Double]]): (Seq[Op], Int) = {
    val ops = mutable.ArrayBuffer.empty[Op]
    val deadline = System.nanoTime() + seconds * 1000000000L
    var i = 0
    while (i < queries.size || System.nanoTime() < deadline) {
      ops ++= Ops.visit(queries(i % queries.size), refs)
      i += 1
    }
    (ops.toSeq, i)
  }

  private def metric(v: Double, unit: String) = Map("value" -> v, "unit" -> unit)

  def timedRun(spark: SparkSession, w: Workload, o: Opts): (Map[String, Any], Map[String, Any]) = {
    val started = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val t0 = System.nanoTime()
    val p = Workloads.prepare(spark, w, o.seed, w.datasets)
    val t1 = System.nanoTime()
    // The untimed warm-up visits the queries in turn for `WarmupSeconds`, at
    // least one round: the first visit to a query fixes its reference
    // answer, and the JIT gets time to settle (after a single round, calls
    // still got 5–15% faster between the first and second timed rounds).
    // The timed phase then does the same for `seconds`. A visit calls every
    // solver of the query once.
    val refs = mutable.Map.empty[Query, Option[Double]]
    val (warm, _) = visitFor(p.queries, WarmupSeconds, refs)
    val t2 = System.nanoTime()
    val (timed, visits) = visitFor(p.queries, o.seconds, refs)
    val all = warm ++ timed
    val failed = all.count(!_.ok)
    def of(s: Solver) = timed.filter(_.solver == s).toSeq
    // Calls per second over one round of the solver's queries, each query
    // timed by the median of its calls, so one slow call (a GC pause) does
    // not set the figure.
    def qps(s: Solver) = {
      val perQuery = of(s).groupBy(_.query).values.map(ops => median(ops.map(_.ms)))
      perQuery.size / (perQuery.sum / 1000)
    }
    def p50(s: Solver) = median(of(s).map(_.ms))
    import Solver._
    val metrics = Map(
      "setup_s"          -> metric(median(p.setupSecs), "s"),
      "ok_share"         -> metric(1.0 - failed.toDouble / all.size, "ratio"),
      "index_mb"         -> metric(p.queries.filter(_.index != null).map(_.index.sizeBytes).max / 1e6, "MB"),
      "ds_search.qps"    -> metric(qps(DS), "1/s"),
      "ds_search.p50_ms" -> metric(p50(DS), "ms"),
      "gids.qps"         -> metric(qps(GIDS), "1/s"),
      "app_gids.qps"     -> metric(qps(App), "1/s"),
      "app_gids.quality" -> metric(of(App).map(_.quality).filterNot(_.isNaN).maxOption.getOrElse(Double.NaN), "ratio"),
      "maxrs_ds.qps"     -> metric(qps(MaxDS), "1/s"),
      "oe.qps"           -> metric(qps(OE), "1/s"),
      "base.qps"         -> metric(qps(Base), "1/s"),
    )
    val meta = Map(
      "workload" -> w.name, "seed" -> o.seed, "trace" -> 0, "threads" -> spark.sparkContext.defaultParallelism,
      "fingerprints" -> p.fingerprints, "inputs" -> p.inputs, "setup_s" -> p.setupSecs,
      "call_ms" -> Solver.all.map(s => s.key -> of(s).map(o => math.round(o.ms))).toMap,
      "rounds" -> visits.toDouble / p.queries.size, "ops" -> all.size,
      "phase_s" -> Map("start" -> started, "setup" -> (t1 - t0) / 1e9, "warmup" -> (t2 - t1) / 1e9,
                       "timed" -> (System.nanoTime() - t2) / 1e9))
    (Map("correct" -> (failed == 0), "attempted" -> all.size, "failed" -> failed, "metrics" -> metrics), meta)
  }
}
