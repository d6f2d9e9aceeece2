package repro.core

import repro.SparkSpec
import org.apache.spark.sql.functions.lit

/** Def. 7 GPS accuracies: window-function path vs local path vs hand math. */
class AccuracySpec extends SparkSpec {

  test("accuracy of a known edge set") {
    import spark.implicits._
    // objects at x ∈ {0.25, 0.5, 0.625}, a = 0.125 → edges {0.125,0.25,0.375,0.5,0.625}
    val data = Seq((0.25, 0.5, "A", 1.0, 1.0), (0.5, 0.25, "A", 1.0, 1.0),
                   (0.625, 0.75, "B", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val spec = TestGen.specs(0)
    val rects = Rects.build(data, 0.125, 0.25, spec)
    val (dx, dy) = Accuracy.of(rects)
    assert(math.abs(dx - 0.125) < 1e-12)
    // y edges: {0.0, 0.25, 0.5, 0.75} → min gap 0.25
    assert(math.abs(dy - 0.25) < 1e-12)
  }

  /** Solvers take ΔX/ΔY from `ofLocal`; it must equal the window job's. */
  private def agree(seed: Int, res: Double): Unit = {
    val data = TestGen.df(spark, 30, seed, res)
    val spec = TestGen.specs(0)
    val rects = Rects.build(data, 6 / 64.0, 9 / 64.0, spec).cache()
    val lr = LocalRects.collect(rects, spec)
    assert(Accuracy.of(rects) == Accuracy.ofLocal(lr))
    rects.unpersist()
  }

  for (seed <- 1 to 5) test(s"spark and local accuracies agree (seed $seed)") {
    agree(seed, 1.0 / 64)
  }

  for (seed <- 1 to 3) test(s"spark and local accuracies agree off the lattice (seed $seed)") {
    agree(seed, 1e-9)
  }

  test("lattice data with lattice-multiple query size has lattice accuracy") {
    val data = TestGen.df(spark, 50, 77, res = 1.0 / 64)
    val spec = TestGen.specs(0)
    val lr = TestGen.localRects(data, 8 / 64.0, 4 / 64.0, spec)
    val (dx, dy) = Accuracy.ofLocal(lr)
    // snapped coords minus lattice-multiple size stay on the lattice
    assert(dx >= 1.0 / 64 - 1e-15 && dy >= 1.0 / 64 - 1e-15)
  }

  test("single distinct coordinate yields infinite accuracy") {
    import spark.implicits._
    val data = Seq((0.5, 0.5, "A", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val spec = TestGen.specs(0)
    val lr = TestGen.localRects(data, 0.2, 0.2, spec)
    val (dx, dy) = Accuracy.ofLocal(lr)
    assert(dx == 0.2 && dy == 0.2) // the two edges of the single rectangle
  }
}
