package repro.exp

import repro.{SparkSpec, SynthData}

/** Query constants of the paper's §7.1 aggregators against direct
  * enumeration over the objects.
  */
class ExperimentsSpec extends SparkSpec {

  test("F2's v_max is the most visits any a×b region holds") {
    val data = SynthData.pois(spark, 60, seed = 5).cache()
    val objs = data.select("x", "y", "visits").collect()
      .map(r => (r.getDouble(0), r.getDouble(1), r.getLong(2)))
    val a = 40 * Experiments.unit(); val b = 24 * Experiments.unit()
    // A region (px, px+a) × (py, py+b) changes content only where px or py
    // crosses an object coordinate or that coordinate minus the size, so the
    // midpoints between consecutive such values enumerate every region.
    def mids(cs: Seq[Double]): Seq[Double] = cs.distinct.sorted.sliding(2).map(p => (p(0) + p(1)) / 2).toSeq
    val pxs = mids(objs.flatMap(o => Seq(o._1, o._1 - a)).toIndexedSeq)
    val pys = mids(objs.flatMap(o => Seq(o._2, o._2 - b)).toIndexedSeq)
    val brute = (for (px <- pxs; py <- pys) yield objs.collect {
      case (x, y, v) if px < x && x < px + a && py < y && y < py + b => v
    }.sum).max

    val (spec, target) = Experiments.f2AndTarget(data, a, b)
    assert(target(0) == brute.toDouble, s"v_max ${target(0)} vs brute force $brute")
    assert(spec.weights(0) == 1.0 / brute)
    data.unpersist()
  }
}
