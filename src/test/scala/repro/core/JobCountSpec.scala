package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.repro.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.SparkSpec
import scala.jdk.CollectionConverters._

/** Spark jobs per solver call: every query is set up by one collect of its
  * rectangles; above `localThreshold` DS-Search adds only the distributed
  * root discretization.
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

  test("every solver runs one Spark job per call at n <= localThreshold") {
    val data = TestGen.df(spark, 40, 21).cache()
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
    data.unpersist()
  }

  for (seed <- 4 to 6) test(s"hybrid path: one collect plus the root discretization (seed $seed)") {
    val data = TestGen.df(spark, 30, seed).cache()
    data.count()
    val spec = TestGen.specs(3)
    val (a, b) = (12 / 64.0, 10 / 64.0)
    // 3 objects of each category, mean v 5, total w 4: never the empty region.
    val target = Array(3.0, 3, 3, 5, 4)
    val q = PreparedQuery(data, a, b, spec)
    val (_, rootJobs, _) = traced(Discretize.spark(q.rects, Grid(q.space, 30, 30), spec))

    val (hybrid, jobs, plans) =
      traced(DSSearch.solveASRS(data, a, b, spec, target, SearchParams(localThreshold = 15)))
    val local = DSSearch.solveASRS(data, a, b, spec, target, SearchParams(localThreshold = 1000))
    assert(hybrid.stats.sparkDiscretizations == 1, hybrid.stats.toString)
    assert(jobs == 1 + rootJobs, s"$jobs jobs; the root discretization alone runs $rootJobs")
    assert(!plans.exists(_.contains("Window")), "the search ran a window job (Accuracy.of)")
    assert(math.abs(hybrid.score - local.score) < 1e-9, s"hybrid ${hybrid.score} vs local ${local.score}")
    data.unpersist()
  }
}
