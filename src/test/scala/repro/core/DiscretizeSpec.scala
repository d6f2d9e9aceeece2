package repro.core

import repro.SparkSpec
import scala.util.Random

/** Function Discretize: the Spark groupBy path equals the driver-local path,
  * classification matches brute-force geometry, clean-cell representations
  * are exact, and dirty-cell bounds are sound.
  */
class DiscretizeSpec extends SparkSpec {

  /** Counts and `nPartial` exact, sums within 1e-9, partial min/max within
    * 1e-12 or both NaN.
    */
  private def assertSameCells(x: CellStats, y: CellStats): Unit = {
    assert(x.slots == y.slots, s"slot count ${x.slots} vs ${y.slots}")
    for (slot <- 0 until x.slots) {
      assert(x.nPartial(slot) == y.nPartial(slot), s"nPartial at slot $slot")
      def at(cs: CellStats, i: Int, k: Int) = cs.raw(slot * cs.width + cs.offsets(i) + k)
      def same(i: Int, k: Int, tol: Double) = {
        val (u, v) = (at(x, i, k), at(y, i, k))
        assert(u == v || (u.isNaN && v.isNaN) || math.abs(u - v) < tol, s"slot $slot agg $i stat $k: $u vs $v")
      }
      x.spec.aggs.zipWithIndex.foreach {
        case (d: DistAgg, i) => (0 until 2 * d.dim).foreach(same(i, _, 0))
        case (_: AvgAgg, i)  =>
          same(i, 0, 0); same(i, 1, 1e-9); same(i, 2, 0); same(i, 3, 1e-12); same(i, 4, 1e-12)
        case (_: SumAgg, i)  => (0 until 3).foreach(same(i, _, 1e-9))
      }
    }
  }

  for (seed <- 1 to 6; specIdx <- Seq(0, 3, 4))
    test(s"spark and local discretization agree (seed $seed, spec $specIdx)") {
      val data = TestGen.df(spark, 35, seed)
      val spec = TestGen.specs(specIdx)
      val rng = new Random(seed * 13)
      val a = (rng.nextInt(16) + 6) / 64.0; val b = (rng.nextInt(16) + 6) / 64.0
      val rects = Rects.build(data, a, b, spec).cache()
      val lr = LocalRects.collect(rects, spec)
      for (grid <- Seq(Grid(Box(-a, -b, 1, 1), 7, 5),
                       Grid(Box(0.25, 0.25, 0.75, 0.8), 6, 6))) {
        val viaSpark = Discretize.spark(rects, grid, spec)
        val viaLocal = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
        assertSameCells(viaSpark, viaLocal)
      }
      rects.unpersist()
    }

  for (seed <- 1 to 10) test(s"clean cells are exact, dirty bounds sound (seed $seed)") {
    val rng = new Random(seed * 7 + 1)
    val data = TestGen.df(spark, 30, seed + 100)
    val spec = TestGen.specs(3)
    val a = (rng.nextInt(16) + 6) / 64.0; val b = (rng.nextInt(16) + 6) / 64.0
    val lr = TestGen.localRects(data, a, b, spec)
    val grid = Grid(Box(-a, -b, 1, 1), 9, 9)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)

    for (i <- 0 until grid.ncol; j <- 0 until grid.nrow) {
      val box = grid.cellBox(i, j)
      if (!cells.isDirty(grid.flat(i, j))) {
        // every interior point has the clean representation
        val exact = new Array[Double](spec.dim)
        cells.exact(grid.flat(i, j), exact)
        for (_ <- 1 to 3) {
          val px = box.x0 + (0.1 + 0.8 * rng.nextDouble()) * box.width
          val py = box.y0 + (0.1 + 0.8 * rng.nextDouble()) * box.height
          val v = BruteForce.evalPoint(lr, spec, px, py)
          exact.indices.foreach(k => assert(math.abs(exact(k) - v(k)) < 1e-9,
            s"clean cell ($i,$j) dim $k: ${exact(k)} vs ${v(k)}"))
        }
      } else {
        val (lo, hi) = (new Array[Double](spec.dim), new Array[Double](spec.dim))
        cells.bounds(grid.flat(i, j), lo, hi)
        for (_ <- 1 to 5) {
          val px = box.x0 + rng.nextDouble() * box.width
          val py = box.y0 + rng.nextDouble() * box.height
          val v = BruteForce.evalPoint(lr, spec, px, py)
          v.indices.foreach { k =>
            assert(lo(k) <= v(k) + 1e-9 && v(k) <= hi(k) + 1e-9,
              s"dirty cell ($i,$j) dim $k: ${v(k)} outside [${lo(k)}, ${hi(k)}]")
          }
        }
      }
    }
  }

  for (seed <- 11 to 16) test(s"dirty-cell lower bound never beats a real point (seed $seed)") {
    val rng = new Random(seed)
    val data = TestGen.df(spark, 25, seed)
    val spec = TestGen.specs(5)
    val a = 10 / 64.0; val b = 8 / 64.0
    val target = TestGen.target(spark, data, spec, a, b, seed)
    val obj = MinDistance(spec, target)
    val lr = TestGen.localRects(data, a, b, spec)
    val grid = Grid(Box(-a, -b, 1, 1), 8, 8)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
    for (i <- 0 until grid.ncol; j <- 0 until grid.nrow if cells.isDirty(grid.flat(i, j))) {
      val (lo, hi) = (new Array[Double](spec.dim), new Array[Double](spec.dim))
      cells.bounds(grid.flat(i, j), lo, hi)
      val lb = obj.bound(lo, hi)
      val box = grid.cellBox(i, j)
      for (_ <- 1 to 8) {
        val px = box.x0 + rng.nextDouble() * box.width
        val py = box.y0 + rng.nextDouble() * box.height
        val d = obj.score(BruteForce.evalPoint(lr, spec, px, py))
        assert(lb <= d + 1e-9, s"lb $lb > dist $d in cell ($i,$j)")
      }
    }
  }

  test("cells no rectangle touches read as empty") {
    val data = TestGen.df(spark, 20, 3)
    val spec = TestGen.specs(3)
    val lr = TestGen.localRects(data, 0.1, 0.1, spec)
    val grid = Grid(Box(-0.1, -0.1, 1, 1), 12, 12)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
    val exact = new Array[Double](spec.dim)
    var untouched = 0
    for (i <- 0 until 12; j <- 0 until 12
         if !Array.range(0, lr.n).exists(r => lr.box(r).overlapsOpen(grid.cellBox(i, j)))) {
      untouched += 1
      assert(!cells.isDirty(grid.flat(i, j)), s"untouched cell ($i,$j) is dirty")
      cells.exact(grid.flat(i, j), exact)
      assert(exact.forall(_ == 0.0), s"untouched cell ($i,$j) is not empty")
      val box = grid.cellBox(i, j)
      assert(BruteForce.evalPoint(lr, spec, box.centerX, box.centerY).forall(_ == 0.0))
    }
    assert(untouched > 0)
  }

  test("a rectangle spanning the whole grid fully covers every cell") {
    import spark.implicits._
    val data = Seq((0.5, 0.5, "A", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val spec = TestGen.specs(0)
    val lr = TestGen.localRects(data, 10.0, 10.0, spec)
    val grid = Grid(Box(0.0, 0.0, 0.4, 0.4), 5, 5)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
    assert(cells.slots == 25)
    val exact = new Array[Double](spec.dim)
    (0 until 25).foreach { slot =>
      assert(!cells.isDirty(slot))
      cells.exact(slot, exact)
      assert(exact.sameElements(Array(1.0, 0.0, 0.0)))
    }
  }
}
