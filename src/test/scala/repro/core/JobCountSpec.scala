package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.repro.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.{SparkSpec, SynthData}
import repro.exp.Experiments
import scala.jdk.CollectionConverters._

/** Spark jobs per solver call: every query is set up by one collect of its
  * rectangles, and every solver searches on the driver. An index build is
  * one collect of the objects, with no shuffle.
  */
class JobCountSpec extends SparkSpec {

  private final class Jobs extends SparkListener {
    val count = new AtomicInteger
    val plans = new ConcurrentLinkedQueue[String]
    override def onJobStart(e: SparkListenerJobStart): Unit = count.incrementAndGet()
    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case s: SparkListenerSQLExecutionStart => plans.add(s.physicalPlanDescription)
      case _ =>
    }
  }

  /** `f`'s result, the Spark jobs it ran and the physical plans it executed. */
  private def traced[T](f: => T): (T, Int, Seq[String]) = {
    val sc = spark.sparkContext
    val jobs = new Jobs
    ListenerDrain(sc)
    sc.addSparkListener(jobs)
    try {
      val r = f
      ListenerDrain(sc)
      (r, jobs.count.get, jobs.plans.asScala.toSeq)
    } finally sc.removeSparkListener(jobs)
  }

  test("every solver runs one Spark job per call") {
    val data = TestGen.df(spark, 40, 21)
    data.count()
    val spec = TestGen.specs(3)
    val (a, b) = (10 / 64.0, 8 / 64.0)
    val target = TestGen.target(spark, data, spec, a, b, 21)
    val index = GridIndex.build(data, spec, 8, 8)
    val calls = Seq[(String, () => Any)](
      "DSSearch.solveASRS" -> (() => DSSearch.solveASRS(data, a, b, spec, target)),
      "DSSearch.solveMaxRS" -> (() => DSSearch.solveMaxRS(data, a, b)),
      "GIDS.solve" -> (() => GIDS.solve(data, a, b, spec, target, index)),
      "SweepBase.solveASRS" -> (() => SweepBase.solveASRS(data, a, b, spec, target)),
      "MaxRSOE.solveMaxRS" -> (() => MaxRSOE.solveMaxRS(data, a, b)))
    calls.foreach { case (name, call) =>
      val (_, jobs, _) = traced(call())
      assert(jobs == 1, s"$name ran $jobs Spark jobs")
    }
  }

  test("GridIndex.build runs one Spark job") {
    val data = TestGen.df(spark, 40, 21)
    data.count()
    val (_, jobs, plans) = traced(GridIndex.build(data, TestGen.specs(3), 8, 8))
    assert(jobs == 1, s"GridIndex.build ran $jobs Spark jobs")
    assert(!plans.exists(_.contains("Exchange")), "GridIndex.build shuffled")
  }

  test("DS-Search and DS-MaxRS run one Spark job and no window at n = 5,000 (F1, 10q)") {
    val data = SynthData.pois(spark, 5000, seed = 3).cache()
    data.count()
    val spec = Experiments.F1
    val a = 10 * Experiments.unit()
    val target = Experiments.f1Target(data, a, a)
    val (ds, dsJobs, dsPlans) = traced(DSSearch.solveASRS(data, a, a, spec, target))
    val (maxrs, maxrsJobs, maxrsPlans) = traced(DSSearch.solveMaxRS(data, a, a))
    assert(dsJobs == 1, s"DSSearch.solveASRS ran $dsJobs Spark jobs")
    assert(maxrsJobs == 1, s"DSSearch.solveMaxRS ran $maxrsJobs Spark jobs")
    assert(!(dsPlans ++ maxrsPlans).exists(_.contains("Window")), "a solver ran a window job")

    val base = SweepBase.solve(TestGen.localRects(data, a, a, spec), spec, MinDistance(spec, target))
    assert(math.abs(ds.score - base.score) <= 1e-9 * math.max(1.0, math.abs(base.score)),
      s"DS-Search ${ds.score} vs Base ${base.score}")
    assert(maxrs.score == MaxRSOE.solveMaxRS(data, a, a).count.toDouble)
    data.unpersist()
  }
}
