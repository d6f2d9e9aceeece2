package repro.core

import repro.SparkSpec
import scala.util.Random

/** The accumulator's bounds are sound: whichever of a slot's partial covers
  * turn out to cover a point, the point's representation lies in the slot's
  * `[lo, hi]` on every dimension.
  */
class CellStatsSpec extends SparkSpec {

  for ((spec, k) <- TestGen.specs.zipWithIndex)
    test(s"bounds hold for every subset of the partial covers added as full (spec $k)") {
      val rng = new Random(k + 1)
      val lr = TestGen.localRects(TestGen.df(spark, 40, k + 31), 0.1, 0.1, spec)
      val (lo, hi, v) = (new Array[Double](spec.dim), new Array[Double](spec.dim), new Array[Double](spec.dim))
      for (_ <- 1 to 200) {
        // Each rectangle is a full cover, a partial cover, or neither.
        val (pFull, pPart) = (rng.nextDouble() * 0.3, rng.nextDouble() * 0.5)
        val cover = Array.fill(lr.n) {
          val u = rng.nextDouble(); if (u < pFull) 1 else if (u < pFull + pPart) 2 else 0
        }
        val slot = new CellStats(spec, 1)
        (0 until lr.n).foreach(r => if (cover(r) > 0) slot.add(0, lr, r, cover(r) == 1, 1))
        slot.bounds(0, lo, hi)
        for (t <- 0 until 20) {
          // t = 0: no partial materializes; t = 1: all do; else a random subset.
          val point = new CellStats(spec, 1)
          (0 until lr.n).foreach { r =>
            if (cover(r) == 1 || (cover(r) == 2 && (t == 1 || (t > 1 && rng.nextBoolean()))))
              point.add(0, lr, r, true, 1)
          }
          point.exact(0, v)
          v.indices.foreach { d =>
            assert(lo(d) <= v(d) + 1e-9 && v(d) <= hi(d) + 1e-9,
              s"dim $d: ${v(d)} outside [${lo(d)}, ${hi(d)}]")
          }
        }
      }
    }
}
