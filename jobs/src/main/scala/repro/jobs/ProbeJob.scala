package repro.jobs

import repro.SynthData
import repro.core._
import repro.exp.Experiments

/** Ad-hoc instrumentation entrypoint: `jobs/runMain repro.jobs.ProbeJob <n>`
  * prints DS-MaxRS search statistics for tuning.
  */
object ProbeJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("asrs-probe")
    val n = Jobs.argLong(args, 0, 50000)
    val data = SynthData.pois(spark, n).cache()
    data.count()
    val a = 10 * Experiments.unit(); val b = a
    val (res, ms) = Experiments.timeMs(DSSearch.solveMaxRS(data, a, b))
    println(s"n=$n count=${res.score} ms=$ms stats=${res.stats}")
    val (oe, oeMs) = Experiments.timeMs(MaxRSOE.solveMaxRS(data, a, b))
    println(s"OE count=${oe.count} ms=$oeMs")
    spark.stop()
  }
}
