package repro.perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.perfbench.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core._
import scala.collection.mutable

/** The traced run (`--trace 1`): per-layer numbers, timed from outside by
  * calling each layer's public functions on the same queries the solvers
  * answer, plus each solver call's search counters and Spark jobs. Nothing
  * inside the program is instrumented.
  *
  * Times (`*_ms`) are medians over calls; counts are per-round sums. The run
  * makes at least two rounds, and every count but executor time must repeat
  * exactly between them: each such count is checked like an op, and one that
  * changes fails the run.
  */
object Traced {

  /** A traced round covers the first datasets only: the layer timings add
    * several Spark jobs per query, and the run must make two rounds.
    */
  val TracedDatasets = 4

  /** Counts Spark jobs and executor run time; registered in this run only. */
  final class JobCounter extends SparkListener {
    val jobs = new AtomicLong
    val taskMs = new AtomicLong
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      if (e.taskMetrics != null) taskMs.addAndGet(e.taskMetrics.executorRunTime)
  }

  private val Counts = Seq(
    "ds_search.spaces", "ds_search.cells", "ds_search.spark_discretizations",
    "ds_search.local_discretizations",
    "gids.cells_searched", "gids.ratio_searched", "gids.spaces", "gids.cells",
    "app_gids.cells_searched", "app_gids.ratio_searched", "app_gids.spaces", "app_gids.cells",
    "maxrs_ds.spaces", "maxrs_ds.cells", "sweepbase.intervals") ++
    Solver.all.flatMap(s => Seq(s"${s.key}.spark_jobs", s"${s.key}.spark_task_ms"))

  private val Times = Seq(
    "rects.build_ms", "rects.bbox_ms", "rects.collect_ms", "accuracy.of_ms", "accuracy.local_ms",
    "discretize.spark_root_ms", "discretize.local_root_ms", "ds_search.search_ms",
    "gridindex.build_ms", "gridindex.bounds_ms", "sweepbase.kernel_ms", "oe.kernel_ms")

  private def unit(name: String) =
    if (name.endsWith("_ms")) "ms" else if (name.endsWith("ratio_searched")) "ratio" else "count"

  def run(spark: SparkSession, w: Workload, o: Main.Opts): (Map[String, Any], Map[String, Any]) = {
    val sc = spark.sparkContext
    val p = Workloads.prepare(spark, w, o.seed, math.min(TracedDatasets, w.datasets))
    val warm = p.queries.flatMap(Ops.visit(_, mutable.Map.empty))
    val counter = new JobCounter
    sc.addSparkListener(counter)
    val times = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    def sample(k: String, ms: Double): Unit = times.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += ms
    def time[T](k: String)(f: => T): (T, Double) = {
      val t0 = System.nanoTime(); val r = f
      val ms = (System.nanoTime() - t0) / 1e6
      sample(k, ms); (r, ms)
    }

    val localThreshold = SearchParams().localThreshold
    val ops = mutable.ArrayBuffer.empty[Op]
    val rounds = mutable.ArrayBuffer.empty[Map[String, Double]]
    val t0 = System.nanoTime()
    while (rounds.size < 2 || System.nanoTime() - t0 < o.seconds * 1000000000L) {
      val counts = mutable.Map.empty[String, Double].withDefaultValue(0.0)
      p.indexed.foreach { case (data, spec) => time("gridindex.build_ms")(Workloads.buildIndex(data, spec)) }

      p.queries.foreach { q =>
        val a = q.a
        val (objs, spec) =
          if (q.isMaxRS) (q.data.withColumn("__one", lit(1.0)), CompositeAggregator.uniform(SumAgg("__one")))
          else (q.data, q.spec)
        // Spark dataflow layers of this query.
        val (rects, buildMs) = time("rects.build_ms") {
          val r = Rects.build(objs, a, a, spec).cache(); r.count(); r
        }
        val (space, bboxMs) = time("rects.bbox_ms") {
          val bb = rects.agg(min("xlo"), min("ylo"), max("xhi"), max("yhi")).collect()(0)
          Box(bb.getDouble(0), bb.getDouble(1), bb.getDouble(2), bb.getDouble(3))
        }
        val (lr, collectMs) = time("rects.collect_ms")(LocalRects.collect(rects, spec))
        val (_, accMs) = time("accuracy.of_ms")(Accuracy.of(rects))
        val (_, accLocalMs) = time("accuracy.local_ms")(Accuracy.ofLocal(lr))
        val grid = Grid(space, 30, 30)
        val (_, rootMs) = time("discretize.spark_root_ms")(Discretize.spark(rects, grid, spec))
        time("discretize.local_root_ms")(Discretize.local(lr, Array.range(0, lr.n), grid, spec))
        // Kernels on the collected rectangles.
        if (q.solvers.contains(Solver.Base))
          counts("sweepbase.intervals") +=
            time("sweepbase.kernel_ms")(SweepBase.solve(lr, spec, MinDistance(spec, q.target)))._1.intervals
        if (q.solvers.contains(Solver.OE)) time("oe.kernel_ms")(MaxRSOE.solve(lr))
        Option(q.index).foreach { idx =>
          val obj = MinDistance(spec, q.target)
          time("gridindex.bounds_ms") {
            var best = Double.PositiveInfinity
            for (cj <- 0 until idx.sy; ci <- 0 until idx.sx) {
              val (lo, hi) = idx.candidateBounds(ci, cj, a, a)
              best = math.min(best, obj.bound(lo, hi))
            }
            best
          }
        }
        rects.unpersist()

        // Solver calls, with the Spark jobs each one runs.
        val qops = q.solvers.map { s =>
          Ops.timed(s, q, f => {
            ListenerDrain(sc)
            val (j0, t0) = (counter.jobs.get, counter.taskMs.get)
            try f() finally {
              ListenerDrain(sc)
              counts(s"${s.key}.spark_jobs") += counter.jobs.get - j0
              counts(s"${s.key}.spark_task_ms") += counter.taskMs.get - t0
            }
          })
        }
        val ref = Ops.reference(q, qops)
        qops.foreach(Ops.check(_, ref))
        qops.foreach { op =>
          for (out <- op.outcome; st <- out.stats) {
            val k = op.solver.key
            op.solver match {
              case Solver.DS =>
                counts("ds_search.spaces") += st.spacesProcessed
                counts("ds_search.cells") += st.cellsEvaluated
                counts("ds_search.spark_discretizations") += st.sparkDiscretizations
                counts("ds_search.local_discretizations") += st.localDiscretizations
                // The seed pipeline's Spark layers for this query, as timed above.
                val spark =
                  if (w.n > localThreshold) accMs + (if (st.sparkDiscretizations > 0) rootMs else 0.0)
                  else collectMs + accLocalMs
                sample("ds_search.search_ms", math.max(0.0, op.ms - buildMs - bboxMs - spark))
              case Solver.GIDS | Solver.App =>
                counts(s"$k.cells_searched") += out.cellsSearched
                counts(s"$k.total_cells") += out.totalCells
                counts(s"$k.spaces") += st.spacesProcessed
                counts(s"$k.cells") += st.cellsEvaluated
              case Solver.MaxDS =>
                counts("maxrs_ds.spaces") += st.spacesProcessed
                counts("maxrs_ds.cells") += st.cellsEvaluated
              case _ =>
            }
          }
        }
        ops ++= qops
      }
      for (k <- Seq("gids", "app_gids"))
        counts(s"$k.ratio_searched") = counts(s"$k.cells_searched") / math.max(1.0, counts(s"$k.total_cells"))
      rounds += Counts.map(k => k -> counts(k)).toMap
    }
    sc.removeSparkListener(counter)

    val exact = Counts.filterNot(_.endsWith("spark_task_ms"))
    val changed = exact.filter(k => rounds.exists(_(k) != rounds.head(k)))
    changed.foreach(k => Console.err.println(
      s"[perfbench] FAILED count $k changed between rounds: ${rounds.map(_(k)).mkString(", ")}"))
    val metrics = Times.map(k => k -> Map("value" -> Main.median(times(k).toSeq), "unit" -> unit(k))) ++
                  Counts.map(k => k -> Map("value" -> rounds.head(k), "unit" -> unit(k)))
    val all = warm ++ ops
    val attempted = all.size + exact.size
    val failed = all.count(!_.ok) + changed.size
    val meta = Map("workload" -> w.name, "seed" -> o.seed, "trace" -> 1,
                   "threads" -> sc.defaultParallelism, "fingerprints" -> p.fingerprints,
                   "rounds" -> rounds.size, "ops" -> all.size)
    (Map("correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
         "metrics" -> metrics.toMap), meta)
  }
}
