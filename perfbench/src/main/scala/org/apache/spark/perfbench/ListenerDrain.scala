package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** The listener bus is asynchronous; reading a listener's counters right
  * after a job returns can miss its last events. `LiveListenerBus` is
  * `private[spark]`, hence this one-line bridge inside Spark's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext, timeoutMs: Long = 10000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
