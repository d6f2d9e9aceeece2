package repro.core

import repro.SparkSpec
import scala.collection.mutable
import scala.util.Random

/** A snapshot's edge arrangement, on the 1/64 lattice (many shared edges)
  * and off it: the sorted distinct edges, the search space, the y-index and
  * the open set of every slab of the x-sweep; and a snapshot whose
  * rectangles are not translates of one box, which the sweep refuses.
  */
class EdgesSpec extends SparkSpec {

  for ((res, where) <- Seq((1.0 / 64, "on the lattice"), (1e-9, "off the lattice")); seed <- 1 to 3)
    test(s"edges, space, y-index and x-sweep of a snapshot $where (seed $seed)") {
      val rng = new Random(seed * 61)
      val a = (rng.nextInt(14) + 4) / 64.0; val b = (rng.nextInt(14) + 4) / 64.0
      val lr = TestGen.localRects(TestGen.df(spark, 40, seed, res), a, b, TestGen.specs(0))
      val e = lr.edges
      assert(e.xs.sameElements((lr.xlo ++ lr.xhi).distinct.sorted))
      assert(e.ys.sameElements((lr.ylo ++ lr.yhi).distinct.sorted))
      assert(e.space == Box(lr.xlo.min, lr.ylo.min, lr.xhi.max, lr.yhi.max))
      e.ys.indices.foreach(k => assert(e.yIndex(e.ys(k)) == k))

      val open = mutable.Set.empty[Int]
      var slabs = 0
      e.sweepX(open.remove(_), open.add(_)) { k =>
        val x = e.xs(k)
        val covering = (0 until lr.n).filter(r => lr.xlo(r) <= x && x < lr.xhi(r)).toSet
        assert(open == covering, s"slab $k at x = $x")
        assert(k == slabs); slabs += 1
      }
      assert(slabs == e.xs.length - 1)
    }

  test("the x-sweep fails fast when xlo falls along the order of xhi") {
    // Rectangle 1 is wider than rectangle 0: it ends right of it but starts
    // left of it.
    val lr = new LocalRects(2, Array(0.0, -1.0), Array(0.0, 0.0), Array(1.0, 2.0), Array(1.0, 1.0),
                            Array(Array(0, 0)), Array(null), Array(null))
    val e = intercept[IllegalArgumentException](lr.edges.sweepX(_ => (), _ => ())(_ => ()))
    assert(e.getMessage.contains("not translates of one a×b box"))
  }
}
